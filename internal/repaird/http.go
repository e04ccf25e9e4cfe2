package repaird

// Exposition: repair_* Prometheus series and the daemon's HTTP surface.

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// PromMetrics renders the daemon's activity as Prometheus samples. All
// series carry the shard label so a fleet scraped into one Prometheus
// stays separable.
func (d *Daemon) PromMetrics() []obs.Metric {
	c := d.Counters()
	labels := []obs.Label{{Name: "shard", Value: d.shardKey()}}
	counter := func(name, help string, v int64) obs.Metric {
		return obs.Metric{Name: name, Type: "counter", Help: help, Value: float64(v), Labels: labels}
	}
	ms := []obs.Metric{
		counter("repair_sweeps_total", "Completed directory sweeps.", c.Sweeps),
		counter("repair_files_scanned_total", "In-shard files scored across all sweeps.", c.Scanned),
		counter("repair_files_queued_total", "Files enqueued for a maintenance pass.", c.Queued),
		counter("repair_passes_total", "Maintain passes executed.", c.Passes),
		counter("repair_pass_failures_total", "Maintain passes that returned an error.", c.PassFailures),
		counter("repair_refreshed_total", "Allocations re-leased before expiry.", c.Refreshed),
		counter("repair_trimmed_dead_total", "Dead mappings dropped from exNodes.", c.TrimmedDead),
		counter("repair_replicas_added_total", "Repair copies uploaded.", c.ReplicasAdded),
		counter("repair_republish_conflicts_total", "Directory puts lost to a version race.", c.Conflicts),
		counter("repair_below_target_total", "Scans that found a file under its durability floor.", c.BelowTarget),
		{
			Name: "repair_queue_depth", Type: "gauge",
			Help:  "Files waiting for a maintenance pass.",
			Value: float64(d.q.depth()), Labels: labels,
		},
		{
			Name: "repair_files_at_risk", Type: "gauge",
			Help:  "Files below the durability target as of the last sweep.",
			Value: float64(c.AtRisk), Labels: labels,
		},
	}
	return append(ms, d.lim.Metrics("repair_limiter_")...)
}

// Surface describes the daemon's HTTP surface: /metrics, /healthz,
// /report (lifetime counters as JSON), /slo with an SLO engine, and
// /trace/ + /postmortem/ with a Recorder.
func (d *Daemon) Surface() obs.Surface {
	s := obs.Surface{
		Component: "maintaind", Now: d.clock.Now, Started: d.started,
		Metrics: d.PromMetrics, Recorder: d.cfg.Recorder,
		Routes: map[string]http.Handler{"/report": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Shard string `json:"shard"`
				Counters
				QueueDepth int `json:"queue_depth"`
			}{d.shardKey(), d.Counters(), d.q.depth()})
		})},
	}
	if d.cfg.SLO != nil {
		s.SLO = d.cfg.SLO
	}
	if d.cfg.Recorder != nil {
		s.Routes["/trace/"] = obs.TraceJSONHandler(d.cfg.Recorder)
	}
	return s
}
