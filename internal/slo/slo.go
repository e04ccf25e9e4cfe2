// Package slo turns the stack's raw reliability signals into verdicts.
//
// The paper's three-day study (§3) tracked exactly two service-level
// indicators — per-depot availability and end-to-end download success —
// by hand; this package makes those (plus IBP op error ratio and latency
// quantiles) first-class SLIs with declared objectives and multi-window
// burn-rate alerting in the style long used for production error budgets:
// an alert fires only when both a long and a short window burn the error
// budget faster than the rule's threshold, so sustained outages page
// quickly while blips and stale incidents do not.
//
// The engine is deliberately passive: callers feed it good/bad events
// (directly or via the ObserveIBP adapter on the obs event stream) and
// call Evaluate when they want verdicts. No background goroutines means
// the whole thing runs deterministically under vclock — the simulated
// 14-depot stackmon study produces alert firings that line up with the
// injected outage schedule.
package slo

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/tsdb"
	"repro/internal/vclock"
)

// SLI names the service-level indicator a sample belongs to.
type SLI string

// The stack's indicators. Keys are per-SLI: depot address for IBPOps and
// DepotAvailability, a tool/site label for DownloadSuccess.
const (
	IBPOps               SLI = "ibp_ops"               // per-depot IBP op success ratio + latency
	DepotAvailability    SLI = "depot_availability"    // per-depot probe availability (stackmon)
	DownloadSuccess      SLI = "download_success"      // end-to-end data retrieval success
	RegistryAvailability SLI = "registry_availability" // per-replica registry reachability (quorum client feed)
	Durability           SLI = "durability"            // per-shard file durability (repaird feed)
)

// BurnRule is one multi-window burn-rate alert condition: fire when both
// the Long and Short windows burn error budget at >= Burn times the rate
// that would exhaust it exactly at the objective's window end.
type BurnRule struct {
	Name     string
	Long     time.Duration
	Short    time.Duration
	Burn     float64
	Severity string // "page", "ticket", ...
}

// DefaultRules are the classic fast/slow burn pair, scaled to the
// simulated studies this repo runs (hours, not the SRE book's days).
func DefaultRules() []BurnRule {
	return []BurnRule{
		{Name: "fast-burn", Long: time.Hour, Short: 5 * time.Minute, Burn: 14.4, Severity: "page"},
		{Name: "slow-burn", Long: 6 * time.Hour, Short: 30 * time.Minute, Burn: 6, Severity: "ticket"},
	}
}

// Objective declares a target for one SLI.
type Objective struct {
	Name   string
	SLI    SLI
	Target float64       // e.g. 0.99 — fraction of events that must be good
	Window time.Duration // error-budget window (default 24h)
	Rules  []BurnRule    // default DefaultRules()
}

// DefaultObjectives covers the paper-§3 metrics with targets loose enough
// for a healthy simulated study and tight enough that an injected outage
// burns through them.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "ibp-op-success", SLI: IBPOps, Target: 0.99, Window: 24 * time.Hour},
		{Name: "depot-availability", SLI: DepotAvailability, Target: 0.95, Window: 24 * time.Hour},
		{Name: "download-success", SLI: DownloadSuccess, Target: 0.99, Window: 24 * time.Hour},
		// A replica may sit dead for a while before anyone notices the
		// quorum masking it — looser than depot availability, because a
		// minority loss is a tolerated failure by design (DESIGN §9).
		{Name: "registry-availability", SLI: RegistryAvailability, Target: 0.9, Window: 24 * time.Hour},
		// Durability is the one SLI where "bad" means data at risk, not an
		// op that can be retried: every maintenance-pass verdict of a file
		// below its redundancy floor burns budget, so a shard drifting
		// toward loss pages long before anything is unrecoverable.
		{Name: "durability", SLI: Durability, Target: 0.999, Window: 24 * time.Hour},
	}
}

// Config parameterizes New.
type Config struct {
	Clock      vclock.Clock        // default wall clock
	Objectives []Objective         // default DefaultObjectives()
	Bucket     time.Duration       // window resolution: totals are sampled once per bucket (default 1m)
	Logger     *slog.Logger        // alert transitions logged here when set
	Recorder   *obs.FlightRecorder // alert transitions retained here when set
	OnAlert    func(Alert)         // called on every fire/resolve transition
}

// Alert is one fire or resolve transition (or, from Evaluate's return,
// one currently-firing condition).
type Alert struct {
	Objective string    `json:"objective"`
	Rule      string    `json:"rule"`
	Key       string    `json:"key"`
	Severity  string    `json:"severity"`
	Firing    bool      `json:"firing"`
	BurnLong  float64   `json:"burn_long"`
	BurnShort float64   `json:"burn_short"`
	Since     time.Time `json:"since"`
}

// Firing is one historical alert interval (ResolvedAt zero while active).
type Firing struct {
	Objective  string    `json:"objective"`
	Rule       string    `json:"rule"`
	Key        string    `json:"key"`
	Severity   string    `json:"severity"`
	FiredAt    time.Time `json:"fired_at"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	PeakBurn   float64   `json:"peak_burn"`
}

// maxFirings bounds the retained alert history.
const maxFirings = 256

// maxLatencySamples bounds each (SLI, key) latency ring.
const maxLatencySamples = 512

type sliKey struct {
	sli SLI
	key string
}

type fireKey struct {
	objective, rule, key string
}

// series holds one (SLI, key)'s lifetime totals, the store series their
// history lives in, and a bounded latency sample ring.
type series struct {
	totalGood int64
	totalBad  int64
	bucket    int64          // the bucket whose start the totals were last appended at
	counters  [2]tsdb.Sample // slo_sli_good_total, slo_sli_bad_total for this (SLI, key)

	lat *ring.Ring[float64]
}

// Engine accumulates SLI samples and evaluates burn-rate rules on demand.
// Safe for concurrent use. A nil *Engine ignores all recordings, so
// callers can wire it unconditionally.
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	store   *tsdb.Store // per-bucket samples of every series' lifetime totals
	series  map[sliKey]*series
	active  map[fireKey]*Firing
	history *ring.Ring[Firing]
}

// New builds an engine from cfg, applying defaults for zero fields.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = DefaultObjectives()
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Minute
	}
	for i := range cfg.Objectives {
		o := &cfg.Objectives[i]
		if o.Window <= 0 {
			o.Window = 24 * time.Hour
		}
		if len(o.Rules) == 0 {
			o.Rules = DefaultRules()
		}
	}
	return &Engine{
		cfg:     cfg,
		store:   tsdb.New(tsdb.Config{}),
		series:  make(map[sliKey]*series),
		active:  make(map[fireKey]*Firing),
		history: ring.New[Firing](maxFirings),
	}
}

// Objectives returns the engine's (defaulted) objectives.
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return e.cfg.Objectives
}

func (e *Engine) seriesFor(k sliKey) *series {
	s := e.series[k]
	if s == nil {
		labels := []tsdb.Label{{Name: "key", Value: k.key}, {Name: "sli", Value: string(k.sli)}}
		s = &series{
			bucket: -1,
			counters: [2]tsdb.Sample{
				{Name: "slo_sli_good_total", Labels: labels},
				{Name: "slo_sli_bad_total", Labels: labels},
			},
			lat: ring.New[float64](maxLatencySamples),
		}
		e.series[k] = s
	}
	return s
}

// Record feeds one good/bad event for (sli, key) at the engine clock's
// current time. The first event of a bucket first appends the series'
// totals to the store, stamped at the bucket's start, so the store holds
// each bucket's opening totals; Record allocates nothing otherwise.
func (e *Engine) Record(sli SLI, key string, good bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.seriesFor(sliKey{sli, key})
	width := int64(e.cfg.Bucket)
	if b := e.cfg.Clock.Now().UnixNano() / width; b != s.bucket {
		s.bucket = b
		s.counters[0].Value, s.counters[1].Value = float64(s.totalGood), float64(s.totalBad)
		e.store.Append(time.Unix(0, b*width), s.counters[:])
	}
	if good {
		s.totalGood++
	} else {
		s.totalBad++
	}
}

// RecordLatency feeds one latency observation (seconds) for (sli, key).
func (e *Engine) RecordLatency(sli SLI, key string, seconds float64) {
	if e == nil || seconds < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seriesFor(sliKey{sli, key}).lat.Push(seconds)
}

// window counts the good/bad events over [now-window, now]: the store's
// increase from the first bucket-start sample inside the window to the
// live totals. Mid-bucket that is every bucket starting inside the window
// plus the current one; exactly on a boundary it includes the bucket that
// starts at now-window. A window narrower than a bucket reads one bucket.
func (s *series) window(e *Engine, now time.Time, window time.Duration) (good, bad int64) {
	from := now.Add(-max(window, e.cfg.Bucket))
	since := func(counter tsdb.Sample, total int64) int64 {
		inc := tsdb.Increase(append(e.store.Range(counter.Key(), from, now), tsdb.Point{T: now, V: float64(total)}))
		if math.IsNaN(inc) { // no bucket opened inside the window: nothing recorded
			return 0
		}
		return int64(inc)
	}
	return since(s.counters[0], s.totalGood), since(s.counters[1], s.totalBad)
}

// Burn converts good/bad counts into a burn rate against target: the
// observed error ratio divided by the budgeted one, 1 − target. Zero
// events burn nothing; a target of 1 has no budget, so any bad event burns
// at 1e9. Every burn and budget figure in the stack — the rule windows,
// /slo, slo_error_budget_remaining_ratio and obsd's /fleet/budget — is
// this function.
func Burn(good, bad, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9
	}
	return (bad / total) / budget
}

// Evaluate walks every (objective, rule, key), updates firing state, and
// returns the currently-firing alerts sorted by objective/rule/key.
// Transitions are logged, retained in the flight recorder, and passed to
// OnAlert.
func (e *Engine) Evaluate() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	now := e.cfg.Clock.Now()
	var fired, resolved []Alert
	var out []Alert
	for _, o := range e.cfg.Objectives {
		for k, s := range e.series {
			if k.sli != o.SLI {
				continue
			}
			for _, r := range o.Rules {
				lGood, lBad := s.window(e, now, r.Long)
				sGood, sBad := s.window(e, now, r.Short)
				bLong := Burn(float64(lGood), float64(lBad), o.Target)
				bShort := Burn(float64(sGood), float64(sBad), o.Target)
				fk := fireKey{o.Name, r.Name, k.key}
				f := e.active[fk]
				a := Alert{
					Objective: o.Name, Rule: r.Name, Key: k.key, Severity: r.Severity,
					BurnLong: bLong, BurnShort: bShort,
				}
				switch {
				case f == nil && lGood+lBad > 0 && bLong >= r.Burn && bShort >= r.Burn:
					f = &Firing{
						Objective: o.Name, Rule: r.Name, Key: k.key,
						Severity: r.Severity, FiredAt: now, PeakBurn: bLong,
					}
					e.active[fk] = f
					a.Firing, a.Since = true, now
					fired = append(fired, a)
				case f != nil && bLong < r.Burn:
					// Resolve on the long window alone: the short window
					// going quiet just means the incident stopped burning
					// recently, not that the budget recovered.
					f.ResolvedAt = now
					e.history.Push(*f)
					delete(e.active, fk)
					a.Since = f.FiredAt
					resolved = append(resolved, a)
					continue
				case f != nil:
					f.PeakBurn = max(f.PeakBurn, bLong)
				}
				if f != nil {
					a.Firing, a.Since = true, f.FiredAt
					out = append(out, a)
				}
			}
		}
	}
	logger, rec, onAlert := e.cfg.Logger, e.cfg.Recorder, e.cfg.OnAlert
	e.mu.Unlock()

	emit := func(a Alert, verb string) {
		if logger != nil {
			logger.Warn("slo alert "+verb,
				"objective", a.Objective, "rule", a.Rule, "key", a.Key,
				"severity", a.Severity,
				"burn_long", fmt.Sprintf("%.2f", a.BurnLong),
				"burn_short", fmt.Sprintf("%.2f", a.BurnShort))
		}
		if rec != nil {
			rec.Add(obs.Entry{
				Time: now, Kind: obs.KindAlert, Depot: a.Key,
				Msg: fmt.Sprintf("slo alert %s: %s/%s burn long %.2f short %.2f",
					verb, a.Objective, a.Rule, a.BurnLong, a.BurnShort),
				Level: "WARN",
			})
		}
		if onAlert != nil {
			onAlert(a)
		}
	}
	for _, a := range fired {
		emit(a, "fired")
	}
	for _, a := range resolved {
		emit(a, "resolved")
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Objective != out[j].Objective {
			return out[i].Objective < out[j].Objective
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Firings returns the alert history (resolved intervals oldest first,
// then the currently-active firings).
func (e *Engine) Firings() []Firing {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.history.Last(make([]Firing, 0, e.history.Len()+len(e.active)), 0)
	var act []Firing
	for _, f := range e.active {
		act = append(act, *f)
	}
	sort.Slice(act, func(i, j int) bool {
		if !act[i].FiredAt.Equal(act[j].FiredAt) {
			return act[i].FiredAt.Before(act[j].FiredAt)
		}
		return act[i].Key < act[j].Key
	})
	return append(out, act...)
}

// KeyStatus is one (objective, key)'s snapshot.
type KeyStatus struct {
	Key             string  `json:"key"`
	Good            int64   `json:"good"`
	Bad             int64   `json:"bad"`
	ErrorRatio      float64 `json:"error_ratio"`
	BudgetRemaining float64 `json:"budget_remaining"`
	LatencyP50      float64 `json:"latency_p50_s,omitempty"`
	LatencyP95      float64 `json:"latency_p95_s,omitempty"`
	LatencyP99      float64 `json:"latency_p99_s,omitempty"`
}

// ObjectiveStatus is one objective's snapshot across its keys.
type ObjectiveStatus struct {
	Name   string      `json:"name"`
	SLI    SLI         `json:"sli"`
	Target float64     `json:"target"`
	Window string      `json:"window"`
	Keys   []KeyStatus `json:"keys"`
}

// Status is the /slo document.
type Status struct {
	Now        time.Time         `json:"now"`
	Objectives []ObjectiveStatus `json:"objectives"`
	Alerts     []Alert           `json:"alerts,omitempty"`
	Firings    []Firing          `json:"firings,omitempty"`
}

// latQuantiles estimates p50/p95/p99 over the retained latency ring by
// bucketing the samples into the stack's shared latency bounds and
// interpolating — the same estimator (stats.HistogramQuantile) the fleet
// tsdb uses for quantile_over_time over scraped _bucket series, so a
// member's /slo quantile and a fleet-level query agree on the number.
func (s *series) latQuantiles() (p50, p95, p99 float64) {
	if s.lat.Len() == 0 {
		return 0, 0, 0
	}
	bs := stats.CumulativeBuckets(obs.DefLatencyBounds, s.lat.Values())
	q := func(p float64) float64 {
		v := stats.HistogramQuantile(p, bs)
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	return q(0.5), q(0.95), q(0.99)
}

// Snapshot evaluates the rules and assembles the full status document.
func (e *Engine) Snapshot() Status {
	if e == nil {
		return Status{}
	}
	alerts := e.Evaluate()
	e.mu.Lock()
	now := e.cfg.Clock.Now()
	st := Status{Now: now, Alerts: alerts}
	for _, o := range e.cfg.Objectives {
		os := ObjectiveStatus{Name: o.Name, SLI: o.SLI, Target: o.Target, Window: o.Window.String()}
		for k, s := range e.series {
			if k.sli != o.SLI {
				continue
			}
			good, bad := s.window(e, now, o.Window)
			ks := KeyStatus{Key: k.key, Good: good, Bad: bad}
			if total := good + bad; total > 0 {
				ks.ErrorRatio = float64(bad) / float64(total)
			}
			ks.BudgetRemaining = 1 - Burn(float64(good), float64(bad), o.Target)
			ks.LatencyP50, ks.LatencyP95, ks.LatencyP99 = s.latQuantiles()
			os.Keys = append(os.Keys, ks)
		}
		sort.Slice(os.Keys, func(i, j int) bool { return os.Keys[i].Key < os.Keys[j].Key })
		st.Objectives = append(st.Objectives, os)
	}
	e.mu.Unlock()
	st.Firings = e.Firings()
	return st
}
