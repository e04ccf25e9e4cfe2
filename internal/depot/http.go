package depot

import (
	"errors"
	"net/http"

	"repro/internal/obs"
)

// The depot's scrape surface. The handlers read live state per request, so
// a scraper sees current gauges, not a snapshot from startup.

// PromMetrics renders the depot's operation counters and allocation/expiry
// gauges as Prometheus samples.
func (d *Depot) PromMetrics() []obs.Metric {
	s := d.metrics.Snapshot()
	opCount := func(verb string, v int64) obs.Metric {
		return obs.Counter("ibp_depot_ops_total", "Operations served, by verb.", v, obs.Label{Name: "verb", Value: verb})
	}
	nextExpiry := 0.0
	if exp, ok := d.NextExpiry(); ok {
		if until := exp.Sub(d.clock.Now()); until > 0 {
			nextExpiry = until.Seconds()
		}
	}
	return []obs.Metric{
		opCount("allocate", s.Allocates),
		opCount("store", s.Stores),
		opCount("load", s.Loads),
		opCount("probe", s.Probes),
		opCount("extend", s.Extends),
		opCount("delete", s.Deletes),
		// BATCH stays off the fixed-width METRICS wire response (old clients
		// parse 13 counters positionally), but scrapers should still see
		// pipelining adoption.
		opCount("batch", s.Batches),
		obs.Counter("ibp_depot_bytes_in_total", "Payload bytes stored.", s.BytesIn),
		obs.Counter("ibp_depot_bytes_out_total", "Payload bytes served.", s.BytesOut),
		obs.Counter("ibp_depot_errors_total", "Requests answered with ERR.", s.Errors),
		obs.Counter("ibp_depot_cap_violations_total", "Capability verification failures.", s.Violations),
		obs.Counter("ibp_depot_reaped_total", "Allocations reclaimed by expiry.", s.Reaped),
		obs.Counter("ibp_depot_connects_total", "Connections accepted.", s.Connects),
		obs.Counter("ibp_depot_restores_total", "Allocations restored at startup.", s.Restores),

		obs.Gauge("ibp_depot_allocations", "Live allocations.", d.AllocationCount()),
		obs.Gauge("ibp_depot_used_bytes", "Committed capacity in bytes.", d.UsedBytes()),
		obs.Gauge("ibp_depot_capacity_bytes", "Total capacity in bytes.", d.Capacity()),
		obs.Gauge("ibp_depot_next_expiry_seconds", "Seconds until the earliest allocation expires (0 = none pending).", nextExpiry),
	}
}

// healthy reports whether the depot is still serving.
func (d *Depot) healthy() error {
	if d.srv.Closed() {
		return errors.New("depot closed")
	}
	return nil
}

// Surface describes the depot's HTTP surface: /metrics, /healthz (503
// once closed), and from its flight recorder /trace/<traceID> (the
// retained entries of that trace as obs.Entry JSON, its server spans
// among them) and /postmortem/<trace>.
func (d *Depot) Surface() obs.Surface {
	return obs.Surface{
		Component: "ibp-depot", Now: d.clock.Now, Started: d.started,
		Metrics: d.PromMetrics, Healthy: d.healthy, Recorder: d.cfg.Recorder,
		Routes: map[string]http.Handler{"/trace/": obs.TraceJSONHandler(d.cfg.Recorder)},
	}
}

// ObsMux builds the depot's Surface. The caller owns the listener:
//
//	go http.ListenAndServe(metricsAddr, d.ObsMux())
func (d *Depot) ObsMux() *http.ServeMux { return d.Surface().Mux() }
