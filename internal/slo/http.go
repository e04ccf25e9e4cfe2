package slo

// Exposition: slo_* Prometheus series, the /slo JSON endpoint, a terminal
// renderer for `xnd slo`, and the adapter feeding the engine from the obs
// event stream.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Metrics renders the engine's state as Prometheus series. Alerts reflect
// the most recent Evaluate (Metrics itself evaluates first, so a scrape
// always sees fresh verdicts).
func (e *Engine) Metrics() []obs.Metric {
	if e == nil {
		return nil
	}
	alerts := e.Evaluate()
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Clock.Now()
	var out []obs.Metric
	for k, s := range e.series {
		sli, key := obs.Label{Name: "sli", Value: string(k.sli)}, obs.Label{Name: "key", Value: k.key}
		out = append(out,
			obs.Counter("slo_sli_good_total", "Good events recorded per SLI and key (lifetime).", s.totalGood, sli, key),
			obs.Counter("slo_sli_bad_total", "Bad events recorded per SLI and key (lifetime).", s.totalBad, sli, key),
		)
		if p50, p95, p99 := s.latQuantiles(); p50 > 0 || p95 > 0 {
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", p50}, {"0.95", p95}, {"0.99", p99}} {
				out = append(out, obs.Gauge("slo_sli_latency_seconds",
					"Latency quantiles over the retained sample window, per SLI and key.",
					q.v, sli, key, obs.Label{Name: "quantile", Value: q.q}))
			}
		}
	}
	for _, o := range e.cfg.Objectives {
		for k, s := range e.series {
			if k.sli != o.SLI {
				continue
			}
			good, bad := s.window(e, now, o.Window)
			out = append(out, obs.Gauge("slo_error_budget_remaining_ratio",
				"Fraction of the objective's error budget left over its window (negative when overspent).",
				1-Burn(float64(good), float64(bad), o.Target),
				obs.Label{Name: "objective", Value: o.Name}, obs.Label{Name: "key", Value: k.key}))
		}
	}
	for _, a := range alerts {
		objective, rule, key := obs.Label{Name: "objective", Value: a.Objective},
			obs.Label{Name: "rule", Value: a.Rule}, obs.Label{Name: "key", Value: a.Key}
		out = append(out,
			obs.Gauge("slo_alert_firing", "1 while the burn-rate rule is firing for the key.", 1,
				objective, rule, key, obs.Label{Name: "severity", Value: a.Severity}),
			obs.Gauge("slo_burn_rate", "Long-window burn rate for the firing rule (error ratio over budgeted ratio).",
				a.BurnLong, objective, rule, key),
		)
	}
	return out
}

// Handler serves the /slo endpoint: the full Status document as JSON.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := e.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st) //nolint:errcheck // client went away; nothing to do
	})
}

// Render prints the status document for terminals (`xnd slo`).
func Render(st Status) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo status at %s\n", st.Now.UTC().Format("2006-01-02 15:04:05"))
	for _, o := range st.Objectives {
		fmt.Fprintf(&b, "\n%s (%s, target %.2f%%, window %s)\n", o.Name, o.SLI, o.Target*100, o.Window)
		if len(o.Keys) == 0 {
			b.WriteString("  no data\n")
			continue
		}
		for _, k := range o.Keys {
			fmt.Fprintf(&b, "  %-24s good %6d  bad %4d  err %6.2f%%  budget %7.2f%%",
				k.Key, k.Good, k.Bad, k.ErrorRatio*100, k.BudgetRemaining*100)
			if k.LatencyP95 > 0 {
				fmt.Fprintf(&b, "  p50 %.3fs p95 %.3fs p99 %.3fs", k.LatencyP50, k.LatencyP95, k.LatencyP99)
			}
			b.WriteByte('\n')
		}
	}
	if len(st.Alerts) > 0 {
		b.WriteString("\nfiring alerts:\n")
		for _, a := range st.Alerts {
			fmt.Fprintf(&b, "  [%s] %s/%s key=%s burn long %.1fx short %.1fx since %s\n",
				a.Severity, a.Objective, a.Rule, a.Key, a.BurnLong, a.BurnShort,
				a.Since.UTC().Format("15:04:05"))
		}
	} else {
		b.WriteString("\nno firing alerts\n")
	}
	if n := len(st.Firings); n > 0 {
		fmt.Fprintf(&b, "alert history: %d interval(s)\n", n)
		hist := st.Firings
		if len(hist) > 8 {
			hist = hist[len(hist)-8:]
		}
		for _, f := range hist {
			end := "still firing"
			if !f.ResolvedAt.IsZero() {
				end = f.ResolvedAt.UTC().Format("15:04:05")
			}
			fmt.Fprintf(&b, "  %s/%s key=%s %s -> %s peak %.1fx\n",
				f.Objective, f.Rule, f.Key,
				f.FiredAt.UTC().Format("15:04:05"), end, f.PeakBurn)
		}
	}
	return b.String()
}

// ObserveIBP adapts the obs event stream into IBPOps SLI samples: every
// real IBP op counts good/bad by outcome, successful ops feed the latency
// quantiles. Synthetic events (hedge markers, tool root spans) are
// skipped — they describe the ops, they are not ops.
func ObserveIBP(e *Engine) obs.Observer {
	return ibpObserver{e}
}

type ibpObserver struct{ e *Engine }

// Record implements obs.Observer.
func (o ibpObserver) Record(ev obs.Event) {
	switch ev.Verb {
	case "HEDGE", "DOWNLOAD", "UPLOAD":
		return
	}
	if ev.Depot == "" {
		return
	}
	o.e.Record(IBPOps, ev.Depot, ev.OK())
	if ev.OK() && ev.Latency > 0 {
		o.e.RecordLatency(IBPOps, ev.Depot, ev.Latency.Seconds())
	}
}

// ObserveRegistry adapts the quorum client's per-replica outcome hook
// into RegistryAvailability SLI samples, keyed by replica address. Wire
// it with registry.WithObserver(slo.ObserveRegistry(engine)): every
// replica exchange — masked by the quorum or not — lands in the burn-rate
// windows, so a silently dead minority replica still pages before a
// second failure turns tolerated into detected.
func ObserveRegistry(e *Engine) func(replica string, ok bool) {
	return func(replica string, ok bool) {
		e.Record(RegistryAvailability, replica, ok)
	}
}

// ObserveDurability adapts the engine into the maintenance fleet's
// durability feed: each scan of a file yields one good/bad verdict (at or
// above its redundancy floor, or below it), keyed by the daemon's shard so
// cardinality stays bounded at fleet scale.
func ObserveDurability(e *Engine) func(shard string, ok bool) {
	return func(shard string, ok bool) {
		e.Record(Durability, shard, ok)
	}
}

// SortedAlertKeys returns the distinct keys currently firing, sorted —
// convenient for tests and reports.
func SortedAlertKeys(alerts []Alert) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range alerts {
		if !seen[a.Key] {
			seen[a.Key] = true
			out = append(out, a.Key)
		}
	}
	sort.Strings(out)
	return out
}
