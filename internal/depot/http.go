package depot

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// The depot's scrape surface. The handlers read live state per request, so
// a scraper sees current gauges, not a snapshot from startup.

// PromMetrics renders the depot's operation counters and allocation/expiry
// gauges as Prometheus samples.
func (d *Depot) PromMetrics() []obs.Metric {
	s := d.metrics.Snapshot()
	var ms []obs.Metric
	counter := func(name, help string, v int64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "gauge", Value: v})
	}
	opCount := func(verb string, v int64) {
		ms = append(ms, obs.Metric{
			Name: "ibp_depot_ops_total", Help: "Operations served, by verb.", Type: "counter",
			Value: float64(v), Labels: []obs.Label{{Name: "verb", Value: verb}},
		})
	}
	opCount("allocate", s.Allocates)
	opCount("store", s.Stores)
	opCount("load", s.Loads)
	opCount("probe", s.Probes)
	opCount("extend", s.Extends)
	opCount("delete", s.Deletes)
	// BATCH stays off the fixed-width METRICS wire response (old clients
	// parse 13 counters positionally), but scrapers should still see
	// pipelining adoption.
	opCount("batch", s.Batches)
	counter("ibp_depot_bytes_in_total", "Payload bytes stored.", s.BytesIn)
	counter("ibp_depot_bytes_out_total", "Payload bytes served.", s.BytesOut)
	counter("ibp_depot_errors_total", "Requests answered with ERR.", s.Errors)
	counter("ibp_depot_cap_violations_total", "Capability verification failures.", s.Violations)
	counter("ibp_depot_reaped_total", "Allocations reclaimed by expiry.", s.Reaped)
	counter("ibp_depot_connects_total", "Connections accepted.", s.Connects)
	counter("ibp_depot_restores_total", "Allocations restored at startup.", s.Restores)

	gauge("ibp_depot_allocations", "Live allocations.", float64(d.AllocationCount()))
	gauge("ibp_depot_used_bytes", "Committed capacity in bytes.", float64(d.UsedBytes()))
	gauge("ibp_depot_capacity_bytes", "Total capacity in bytes.", float64(d.Capacity()))
	nextExpiry := 0.0
	if exp, ok := d.NextExpiry(); ok {
		if until := exp.Sub(d.clock.Now()); until > 0 {
			nextExpiry = until.Seconds()
		}
	}
	gauge("ibp_depot_next_expiry_seconds", "Seconds until the earliest allocation expires (0 = none pending).", nextExpiry)
	return append(ms, obs.RingDropped("spans", d.spansDropped()))
}

// healthy reports whether the depot is still serving.
func (d *Depot) healthy() error {
	if d.srv.Closed() {
		return errors.New("depot closed")
	}
	return nil
}

// Surface describes the depot's HTTP surface: /metrics, /healthz (503
// once closed), /trace/<traceID> (retained server spans as JSON) and, with
// a Recorder, /postmortem/<trace>.
func (d *Depot) Surface() obs.Surface {
	return obs.Surface{
		Component: "ibp-depot", Now: d.clock.Now, Started: d.started,
		Metrics: d.PromMetrics, Healthy: d.healthy, Recorder: d.cfg.Recorder,
		Routes: map[string]http.Handler{"/trace/": http.HandlerFunc(d.serveTrace)},
	}
}

// ObsMux builds the depot's Surface. The caller owns the listener:
//
//	go http.ListenAndServe(metricsAddr, d.ObsMux())
func (d *Depot) ObsMux() *http.ServeMux { return d.Surface().Mux() }

// serveTrace answers /trace/<traceID> with the retained server spans of
// that trace as a JSON array: 400 on anything that is not a well-formed
// trace ID, 404 when the ID is well-formed but no spans are retained.
func (d *Depot) serveTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if !obs.ValidTraceID(id) {
		http.Error(w, "want /trace/<traceID> (hex)", http.StatusBadRequest)
		return
	}
	spans := d.SpansForTrace(id)
	if len(spans) == 0 {
		http.Error(w, "no spans retained for trace "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(spans)
}
