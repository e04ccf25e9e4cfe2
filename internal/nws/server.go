package nws

import (
	"fmt"
	"log/slog"
	"net"
	"strconv"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The paper's clients "query the Network Weather Service to provide live
// performance measurements and forecasts" (§2.2). This file makes the NWS
// a network daemon in its own right: sensors RECORD measurements, clients
// ask for FORECASTs, both over the same line protocol the rest of the
// stack speaks.

// Protocol verbs.
const (
	opRecord   = "RECORD"
	opForecast = "FORECAST"
	opQuit     = "QUIT"
)

// Server exposes a Service over TCP.
type Server struct {
	svc    *Service
	srv    *wire.Server
	logger *slog.Logger
}

// ServeNWS starts an NWS daemon around svc on addr. A nil logger
// discards; pass one built with obs.NewLogger for structured records.
func ServeNWS(addr string, svc *Service, logger *slog.Logger) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nws: listen %s: %w", addr, err)
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Server{svc: svc, logger: logger}
	s.srv = wire.Serve(ln, logger, func(<-chan struct{}) wire.Opener { return s.open })
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close stops the server, severing idle client connections.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) open(conn *wire.Conn) wire.Session {
	return wire.Lines(func(toks []string) bool { return s.dispatch(conn, toks[0], toks[1:]) })
}

func (s *Server) dispatch(conn *wire.Conn, op string, args []string) bool {
	var err error
	switch op {
	case opRecord:
		err = s.handleRecord(conn, args)
	case opForecast:
		err = s.handleForecast(conn, args)
	case opQuit:
		return false
	default:
		err = conn.WriteErr(wire.CodeUnsupported, "unknown operation %s", op)
	}
	if err != nil {
		s.logger.Warn("operation failed", obs.KeyVerb, op, "err", err)
		return false
	}
	return true
}

// RECORD <src> <dst> <res> <value>
func (s *Server) handleRecord(conn *wire.Conn, args []string) error {
	if len(args) != 4 {
		return conn.WriteErr(wire.CodeBadRequest, "RECORD wants <src> <dst> <res> <value>")
	}
	v, err := strconv.ParseFloat(args[3], 64)
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "bad value %q", args[3])
	}
	s.svc.Record(args[0], args[1], Resource(args[2]), v)
	return conn.WriteOK()
}

// FORECAST <src> <dst> <res>
func (s *Server) handleForecast(conn *wire.Conn, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "FORECAST wants <src> <dst> <res>")
	}
	v, ok := s.svc.Forecast(args[0], args[1], Resource(args[2]))
	if !ok {
		return conn.WriteErr(wire.CodeNotFound, "no measurements for series")
	}
	return conn.WriteOK(strconv.FormatFloat(v, 'g', -1, 64))
}
