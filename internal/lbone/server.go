package lbone

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Protocol verbs.
const (
	opRegister   = "REGISTER"
	opHeartbeat  = "HEARTBEAT"
	opDeregister = "DEREGISTER"
	opQuery      = "QUERY"
	opList       = "LIST"
	opQuit       = "QUIT"
)

// ServerConfig parameterizes an L-Bone server.
type ServerConfig struct {
	// TTL is the liveness window for registered depots (0 = never expire).
	TTL time.Duration
	// Clock drives liveness (default: real time).
	Clock vclock.Clock
	// Logger receives per-connection errors as structured records
	// (default: discard).
	Logger *slog.Logger
	// Extension, when set, is offered every verb the core dispatch does
	// not know. It returns (true, err) when it handled the verb (err is
	// the connection-fatal write error, as for core handlers) and
	// (false, nil) to fall through to the bad-request path. The
	// replicated registry mounts its V*/D* quorum verbs here.
	Extension func(conn *wire.Conn, op string, args []string) (bool, error)
	// ExtraMetrics, when set, is appended to PromMetrics — how a mounted
	// extension exports its own registry_* samples on the same scrape.
	ExtraMetrics func() []obs.Metric
}

// ServerStats counts registry traffic — the L-Bone side of the
// observability layer (scraped via /metrics on cmd/lbone-server).
type ServerStats struct {
	Connects       atomic.Int64 // connections accepted
	Registers      atomic.Int64 // REGISTER requests
	Heartbeats     atomic.Int64 // HEARTBEAT requests
	Deregisters    atomic.Int64 // DEREGISTER requests
	Queries        atomic.Int64 // QUERY + LIST requests (resolutions)
	DepotsReturned atomic.Int64 // depot entries served across all queries
	BadRequests    atomic.Int64 // malformed or unknown requests
	ControlOps     atomic.Int64 // control-endpoint verbs (C*)
}

// StatsSnapshot is a plain-value copy for reporting.
type StatsSnapshot struct {
	Connects, Registers, Heartbeats, Deregisters int64
	Queries, DepotsReturned, BadRequests         int64
	ControlOps                                   int64
}

// Snapshot copies the counters.
func (s *ServerStats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Connects:       s.Connects.Load(),
		Registers:      s.Registers.Load(),
		Heartbeats:     s.Heartbeats.Load(),
		Deregisters:    s.Deregisters.Load(),
		Queries:        s.Queries.Load(),
		DepotsReturned: s.DepotsReturned.Load(),
		BadRequests:    s.BadRequests.Load(),
		ControlOps:     s.ControlOps.Load(),
	}
}

// Server is a running L-Bone registry daemon.
type Server struct {
	mu      sync.Mutex
	reg     *Registry
	srv     *wire.Server
	cfg     ServerConfig
	started time.Time
	stats   ServerStats
}

// Stats returns the server's live traffic counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// ServeRegistry starts an L-Bone server on addr.
func ServeRegistry(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lbone: listen %s: %w", addr, err)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		reg:     NewRegistryClock(cfg.TTL, cfg.Clock),
		cfg:     cfg,
		started: cfg.Clock.Now(),
	}
	s.srv = wire.Serve(ln, cfg.Logger, func(<-chan struct{}) wire.Opener { return s.open })
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// WithRegistry runs f with the server's depot table under the server
// lock. Extensions (the quorum replica) use it to read and merge entries
// without racing the wire handlers.
func (s *Server) WithRegistry(f func(*Registry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.reg)
}

// StartPoller launches a capacity poller over this server's registry,
// sharing the server's lock. Stop it before (or after) closing the server.
func (s *Server) StartPoller(client *ibp.Client, interval time.Duration) *Poller {
	p := NewPoller(s.reg, &s.mu, client, s.cfg.Clock, interval)
	go p.Run()
	return p
}

// Close stops the listener, severs open client connections (a quorum
// client's parked session never sends another line, so its handler would
// otherwise block shutdown forever), and waits for the handler
// goroutines.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) open(conn *wire.Conn) wire.Session {
	s.stats.Connects.Add(1)
	return wire.Lines(func(toks []string) bool { return s.dispatch(conn, toks[0], toks[1:]) })
}

func (s *Server) dispatch(conn *wire.Conn, op string, args []string) bool {
	var err error
	switch op {
	case opRegister:
		s.stats.Registers.Add(1)
		err = s.handleRegister(conn, args)
	case opHeartbeat:
		s.stats.Heartbeats.Add(1)
		err = s.handleHeartbeat(conn, args)
	case opDeregister:
		s.stats.Deregisters.Add(1)
		err = s.handleDeregister(conn, args)
	case opQuery:
		s.stats.Queries.Add(1)
		err = s.handleQuery(conn, args)
	case opList:
		s.stats.Queries.Add(1)
		err = s.handleQuery(conn, []string{"0", "0", "-", "0"})
	case OpCRegister:
		s.stats.ControlOps.Add(1)
		err = s.handleCRegister(conn, args)
	case OpCHeartbeat:
		s.stats.ControlOps.Add(1)
		err = s.handleCHeartbeat(conn, args)
	case OpCDeregister:
		s.stats.ControlOps.Add(1)
		err = s.handleCDeregister(conn, args)
	case OpCList:
		s.stats.ControlOps.Add(1)
		err = s.handleCList(conn)
	case opQuit:
		return false
	default:
		if s.cfg.Extension != nil {
			handled, exterr := s.cfg.Extension(conn, op, args)
			if handled {
				err = exterr
				break
			}
		}
		s.stats.BadRequests.Add(1)
		err = conn.WriteErr(wire.CodeUnsupported, "unknown operation %s", op)
	}
	if err != nil {
		s.cfg.Logger.Warn("operation failed", obs.KeyVerb, op, "err", err)
		return false
	}
	return true
}

// REGISTER <addr> <name> <site> <lat,lon> <capacity> <maxDurSec>
func (s *Server) handleRegister(conn *wire.Conn, args []string) error {
	d, err := ParseDepotTokens(args)
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "REGISTER: %v", err)
	}
	s.mu.Lock()
	s.reg.Register(d)
	s.mu.Unlock()
	return conn.WriteOK()
}

func (s *Server) handleHeartbeat(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "HEARTBEAT wants <addr>")
	}
	s.mu.Lock()
	ok := s.reg.Heartbeat(args[0])
	s.mu.Unlock()
	if !ok {
		return conn.WriteErr(wire.CodeNotFound, "depot %s not registered", args[0])
	}
	return conn.WriteOK()
}

func (s *Server) handleDeregister(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "DEREGISTER wants <addr>")
	}
	s.mu.Lock()
	s.reg.Deregister(args[0])
	s.mu.Unlock()
	return conn.WriteOK()
}

// QUERY <minCapacity> <minDurSec> <lat,lon|-> <max>
func (s *Server) handleQuery(conn *wire.Conn, args []string) error {
	req, err := ParseQueryArgs(args)
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "QUERY: %v", err)
	}
	s.mu.Lock()
	res := s.reg.Query(req)
	s.mu.Unlock()
	s.stats.DepotsReturned.Add(int64(len(res)))

	if err := conn.WriteOK(wire.Itoa(int64(len(res)))); err != nil {
		return err
	}
	for _, d := range res {
		if err := conn.WriteLine(append([]string{"DEPOT"}, DepotTokens(d)...)...); err != nil {
			return err
		}
	}
	return nil
}

// ParseQueryArgs parses <minCapacity> <minDurSec> <lat,lon|-> <max>, the
// argument grammar QUERY and the replicated registry's VQUERY share.
func ParseQueryArgs(args []string) (Requirements, error) {
	var req Requirements
	if len(args) != 4 {
		return req, fmt.Errorf("lbone: query wants 4 fields, got %d", len(args))
	}
	var err error
	if req.MinCapacity, err = wire.ParseInt("mincapacity", args[0]); err != nil {
		return req, err
	}
	durSec, err := wire.ParseInt("minduration", args[1])
	if err != nil {
		return req, err
	}
	req.MinDuration = time.Duration(durSec) * time.Second
	if args[2] != "-" {
		p, err := geo.ParsePoint(args[2])
		if err != nil {
			return req, err
		}
		req.Near = &p
	}
	maxN, err := wire.ParseInt("max", args[3])
	if err != nil || maxN < 0 {
		return req, fmt.Errorf("lbone: bad max %q", args[3])
	}
	req.Max = int(maxN)
	return req, nil
}

// DepotTokens renders d as the wire tokens of a DEPOT line (without the
// leading "DEPOT" tag): addr name site loc capacity maxDurSec. Shared by
// the core QUERY response and the replicated registry's VREGISTER and
// VQUERY (which append a liveness stamp after these).
func DepotTokens(d DepotInfo) []string {
	return []string{d.Addr, d.Name, d.Site, d.Loc.String(),
		wire.Itoa(d.Capacity), wire.Itoa(int64(d.MaxDuration.Seconds()))}
}

// ParseDepotTokens is the inverse of DepotTokens: the one parser of a
// depot record, whether it arrives as REGISTER's arguments, VREGISTER's,
// or a query response line.
func ParseDepotTokens(toks []string) (DepotInfo, error) {
	if len(toks) != 6 {
		return DepotInfo{}, fmt.Errorf("lbone: depot record wants 6 tokens, got %d", len(toks))
	}
	loc, err := geo.ParsePoint(toks[3])
	if err != nil {
		return DepotInfo{}, err
	}
	capacity, err := wire.ParseInt("capacity", toks[4])
	if err != nil || capacity < 0 {
		return DepotInfo{}, fmt.Errorf("lbone: bad capacity %q", toks[4])
	}
	durSec, err := wire.ParseInt("maxduration", toks[5])
	if err != nil || durSec < 0 {
		return DepotInfo{}, fmt.Errorf("lbone: bad duration %q", toks[5])
	}
	return DepotInfo{
		Addr:        toks[0],
		Name:        toks[1],
		Site:        toks[2],
		Loc:         loc,
		Capacity:    capacity,
		MaxDuration: time.Duration(durSec) * time.Second,
	}, nil
}
