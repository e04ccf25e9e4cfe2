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

	ms := []obs.Metric{
		obs.Counter("lbone_connects_total", "Connections accepted.", st.Connects),
		obs.Counter("lbone_registers_total", "REGISTER requests.", st.Registers),
		obs.Counter("lbone_heartbeats_total", "HEARTBEAT requests.", st.Heartbeats),
		obs.Counter("lbone_deregisters_total", "DEREGISTER requests.", st.Deregisters),
		obs.Counter("lbone_queries_total", "QUERY and LIST resolutions.", st.Queries),
		obs.Counter("lbone_depots_returned_total", "Depot entries served across all resolutions.", st.DepotsReturned),
		obs.Counter("lbone_bad_requests_total", "Malformed or unknown requests.", st.BadRequests),
		obs.Counter("lbone_control_ops_total", "Control-endpoint registry verbs served.", st.ControlOps),

		obs.Gauge("lbone_depots_registered", "Registered depots (live or not).", total),
		obs.Gauge("lbone_depots_live", "Depots inside their liveness window.", live),
		obs.Gauge("lbone_controls_registered", "Registered fleet control endpoints (live or not).", controls),
	}
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
