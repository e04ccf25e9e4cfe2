package lbone

import (
	"errors"

	"repro/internal/obs"
)

// The L-Bone's scrape surface.

// PromMetrics renders the server's resolution counters and registry gauges
// as Prometheus samples.
func (s *Server) PromMetrics() []obs.Metric {
	st := s.stats.Snapshot()
	s.mu.Lock()
	total := s.reg.Len()
	live := s.reg.LiveLen()
	controls := s.reg.ControlLen()
	s.mu.Unlock()

	var ms []obs.Metric
	counter := func(name, help string, v int64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "gauge", Value: v})
	}
	counter("lbone_connects_total", "Connections accepted.", st.Connects)
	counter("lbone_registers_total", "REGISTER requests.", st.Registers)
	counter("lbone_heartbeats_total", "HEARTBEAT requests.", st.Heartbeats)
	counter("lbone_deregisters_total", "DEREGISTER requests.", st.Deregisters)
	counter("lbone_queries_total", "QUERY and LIST resolutions.", st.Queries)
	counter("lbone_depots_returned_total", "Depot entries served across all resolutions.", st.DepotsReturned)
	counter("lbone_bad_requests_total", "Malformed or unknown requests.", st.BadRequests)
	counter("lbone_control_ops_total", "Control-endpoint registry verbs served.", st.ControlOps)

	gauge("lbone_depots_registered", "Registered depots (live or not).", float64(total))
	gauge("lbone_depots_live", "Depots inside their liveness window.", float64(live))
	gauge("lbone_controls_registered", "Registered fleet control endpoints (live or not).", float64(controls))
	if s.cfg.ExtraMetrics != nil {
		ms = append(ms, s.cfg.ExtraMetrics()...)
	}
	return ms
}

// healthy reports whether the server is still accepting registrations.
func (s *Server) healthy() error {
	if s.srv.Closed() {
		return errors.New("lbone server closed")
	}
	return nil
}

// Surface describes the server's HTTP surface: /metrics and /healthz
// (503 once closed).
func (s *Server) Surface() obs.Surface {
	return obs.Surface{
		Component: "lbone-server", Now: s.cfg.Clock.Now, Started: s.started,
		Metrics: s.PromMetrics, Healthy: s.healthy,
	}
}
