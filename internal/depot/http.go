package depot

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// The depot's scrape surface: /metrics in Prometheus text format and a
// /healthz liveness probe. The handlers read live state per request, so a
// scraper sees current gauges, not a snapshot from startup.

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
	ms = append(ms, obs.ProcessMetrics("ibp-depot", d.clock.Now, d.started)...)
	ms = append(ms, obs.RingDropped("spans", d.spansDropped()))
	if d.cfg.Recorder != nil {
		ms = append(ms, d.cfg.Recorder.RingMetrics()...)
	}
	return ms
}

// healthy reports whether the depot is still serving.
func (d *Depot) healthy() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("depot closed")
	}
	return nil
}

// ObsMux returns an HTTP mux serving GET /metrics (Prometheus text format,
// including Go runtime gauges), GET /healthz, and GET /trace/<traceID>
// (retained server-side spans as JSON). The caller owns the listener:
//
//	go http.ListenAndServe(metricsAddr, d.ObsMux())
func (d *Depot) ObsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		return append(d.PromMetrics(), obs.RuntimeMetrics()...)
	}))
	mux.Handle("/healthz", obs.HealthzHandler(d.healthy))
	mux.Handle("/trace/", http.HandlerFunc(d.serveTrace))
	if d.cfg.Recorder != nil {
		mux.Handle("/postmortem/", obs.PostmortemHandler(d.cfg.Recorder, "ibp-depot", d.clock.Now))
	}
	return mux
}

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
