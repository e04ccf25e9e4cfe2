package stackmon

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// PromMetrics renders the monitor's state as Prometheus samples:
// per-depot up/availability/download-success gauges, a probe-latency
// histogram over the retained samples, and run counters.
func (m *Monitor) PromMetrics() []obs.Metric {
	st := m.Snapshot(false)
	ms := []obs.Metric{
		{
			Name: "stackmon_sweeps_total", Type: "counter",
			Help:  "Completed monitoring sweeps.",
			Value: float64(st.Sweeps),
		},
		{
			Name: "stackmon_depots", Type: "gauge",
			Help:  "Depots under observation.",
			Value: float64(len(st.Depots)),
		},
	}
	for _, d := range st.Depots {
		labels := []obs.Label{{Name: "depot", Value: d.Addr}}
		up := 0.0
		if d.LastUp {
			up = 1.0
		}
		ms = append(ms,
			obs.Metric{
				Name: "stackmon_depot_up", Type: "gauge",
				Help:  "1 while the depot answered its most recent probe.",
				Value: up, Labels: labels,
			},
			obs.Metric{
				Name: "stackmon_depot_availability_ratio", Type: "gauge",
				Help:  "Fraction of sweeps the depot answered, over the whole run.",
				Value: d.Availability, Labels: labels,
			},
			obs.Metric{
				Name: "stackmon_depot_download_success_ratio", Type: "gauge",
				Help:  "Fraction of data rounds that stored, read back, and verified.",
				Value: d.DownloadSuccess, Labels: labels,
			},
			obs.Metric{
				Name: "stackmon_depot_sweeps_total", Type: "counter",
				Help:  "Sweeps that included this depot.",
				Value: float64(d.Sweeps), Labels: labels,
			},
		)
	}
	return append(ms, m.latencyHistograms()...)
}

// latencyHistograms builds one probe-latency histogram per depot from the
// retained samples (up probes only; a down depot's latency is a timeout,
// not a measurement).
func (m *Monitor) latencyHistograms() []obs.Metric {
	m.mu.Lock()
	addrs := make([]string, 0, len(m.byDepot))
	for a := range m.byDepot {
		addrs = append(addrs, a)
	}
	samplesFor := map[string][]float64{}
	for _, a := range addrs {
		samples := m.byDepot[a].samples
		for i := 0; i < samples.Len(); i++ {
			sm := samples.At(i)
			if sm.Up {
				samplesFor[a] = append(samplesFor[a], sm.ProbeLatency.Seconds())
			}
		}
	}
	m.mu.Unlock()

	var ms []obs.Metric
	for _, a := range addrs {
		ms = append(ms, obs.Metric{
			Name: "stackmon_probe_latency_seconds", Type: "histogram",
			Help:   "STATUS probe latency over retained samples.",
			Labels: []obs.Label{{Name: "depot", Value: a}},
			Hist:   obs.NewHistData(obs.DefLatencyBounds, samplesFor[a]),
		})
	}
	return ms
}

// Surface describes the monitor's HTTP surface: /metrics, /healthz,
// /report (the current Study as JSON, sample detail included), and — when
// an SLO engine is attached — /slo (objectives, burn rates, and firing
// alerts as JSON).
func (m *Monitor) Surface() obs.Surface {
	s := obs.Surface{
		Component: "stackmon", Now: m.clock.Now, Started: m.started,
		Metrics: m.PromMetrics,
		Routes: map[string]http.Handler{"/report": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(m.Snapshot(true))
		})},
	}
	if m.cfg.SLO != nil {
		s.SLO = m.cfg.SLO
	}
	return s
}
