package lbone

// Fleet control-endpoint registration. Every daemon in the storage stack
// (depots, registry replicas, maintenance shards, monitors) serves an
// HTTP control mux — /metrics, /healthz, /trace/, /postmortem/ — but
// nothing in the stack knew where those muxes lived: operators had to
// hand-maintain scrape lists. The L-Bone already solves discovery for
// depots (paper §2.2), so the same registry carries a second, additive
// table of control endpoints. Daemons self-register their ObsMux address
// here (registry.QuorumClient.AnnounceControl) and the obsd aggregator
// (internal/obsfleet) discovers every scrape target through the registry
// it already knows.
//
// The wire verbs are additive (CREGISTER/CHEARTBEAT/CDEREGISTER/CLIST)
// so old clients and replicas interoperate unchanged; the 6-token DEPOT
// record format is untouched.

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/wire"
)

// Control-plane protocol verbs.
const (
	OpCRegister   = "CREGISTER"
	OpCHeartbeat  = "CHEARTBEAT"
	OpCDeregister = "CDEREGISTER"
	OpCList       = "CLIST"
)

// ControlInfo is one registered control endpoint: where a daemon's
// observability mux answers HTTP.
type ControlInfo struct {
	Addr      string    // host:port of the daemon's control HTTP mux
	Component string    // daemon kind: "ibp-depot", "lbone-server", "maintaind", ...
	Name      string    // instance name, e.g. "UTK1" or "maintaind-0"
	LastSeen  time.Time // last registration or heartbeat
}

// RegisterControl inserts or refreshes a control-endpoint entry, keyed by
// its HTTP address. Liveness follows the same TTL as depot entries.
func (r *Registry) RegisterControl(ci ControlInfo) {
	ci.LastSeen = r.clock.Now()
	r.controls[ci.Addr] = ci
}

// HeartbeatControl refreshes liveness for a control endpoint; it reports
// whether the endpoint was registered.
func (r *Registry) HeartbeatControl(addr string) bool {
	ci, ok := r.controls[addr]
	if !ok {
		return false
	}
	ci.LastSeen = r.clock.Now()
	r.controls[addr] = ci
	return true
}

// DeregisterControl removes a control endpoint.
func (r *Registry) DeregisterControl(addr string) { delete(r.controls, addr) }

// Controls returns the live control endpoints, ordered by address for
// determinism.
func (r *Registry) Controls() []ControlInfo {
	var out []ControlInfo
	for _, ci := range r.controls {
		if r.ttl > 0 && r.clock.Now().Sub(ci.LastSeen) > r.ttl {
			continue
		}
		out = append(out, ci)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ControlLen reports the number of registered control endpoints (live or
// not).
func (r *Registry) ControlLen() int { return len(r.controls) }

// ControlTokens renders ci as the wire tokens of a CTRL line (without the
// leading "CTRL" tag): addr component name.
func ControlTokens(ci ControlInfo) []string {
	return []string{ci.Addr, ci.Component, ci.Name}
}

// ParseControlTokens is the inverse of ControlTokens.
func ParseControlTokens(toks []string) (ControlInfo, error) {
	if len(toks) != 3 {
		return ControlInfo{}, fmt.Errorf("lbone: control record wants 3 tokens, got %d", len(toks))
	}
	return ControlInfo{Addr: toks[0], Component: toks[1], Name: toks[2]}, nil
}

// CREGISTER <addr> <component> <name>
func (s *Server) handleCRegister(conn *wire.Conn, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "CREGISTER wants 3 fields, got %d", len(args))
	}
	ci, err := ParseControlTokens(args)
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "%v", err)
	}
	s.mu.Lock()
	s.reg.RegisterControl(ci)
	s.mu.Unlock()
	return conn.WriteOK()
}

func (s *Server) handleCHeartbeat(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "CHEARTBEAT wants <addr>")
	}
	s.mu.Lock()
	ok := s.reg.HeartbeatControl(args[0])
	s.mu.Unlock()
	if !ok {
		return conn.WriteErr(wire.CodeNotFound, "control endpoint %s not registered", args[0])
	}
	return conn.WriteOK()
}

func (s *Server) handleCDeregister(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "CDEREGISTER wants <addr>")
	}
	s.mu.Lock()
	s.reg.DeregisterControl(args[0])
	s.mu.Unlock()
	return conn.WriteOK()
}

// CLIST → OK <n>, then n "CTRL addr component name" lines.
func (s *Server) handleCList(conn *wire.Conn) error {
	s.mu.Lock()
	res := s.reg.Controls()
	s.mu.Unlock()
	if err := conn.WriteOK(wire.Itoa(int64(len(res)))); err != nil {
		return err
	}
	for _, ci := range res {
		if err := conn.WriteLine(append([]string{"CTRL"}, ControlTokens(ci)...)...); err != nil {
			return err
		}
	}
	return nil
}

// AdvertisedControlAddr rewrites a listener's address into one peers can
// dial: a wildcard or unspecified host becomes the machine's hostname,
// falling back to the loopback address. Daemons pass their metrics
// listener's Addr() through this before self-registering, and a registry
// started without a member list names itself in its one-member view the
// same way.
func AdvertisedControlAddr(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return listen
	}
	if hn, err := os.Hostname(); err == nil && hn != "" {
		return net.JoinHostPort(hn, port)
	}
	return net.JoinHostPort("127.0.0.1", port)
}
