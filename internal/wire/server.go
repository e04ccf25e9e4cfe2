package wire

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
)

// Server is the accept loop every line-protocol daemon runs (the IBP
// depot, the L-Bone, the NWS): accept, track, read request lines and hand
// each to the daemon's dispatch, recover a handler panic, and on Close
// sever every open connection — an idle client blocks its handler in
// ReadLine forever otherwise — and wait for the handlers.
type Server struct {
	ln      net.Listener
	logger  *slog.Logger
	admit   func(closing <-chan struct{}) Opener
	closing chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
}

// Opener opens one connection's Session; it runs on the connection's own
// goroutine.
type Opener func(c *Conn) Session

// Session is what a daemon serves one connection with.
type Session interface {
	// Dispatch answers one non-empty request line and reports whether the
	// connection stays open.
	Dispatch(toks []string) bool
	// End runs once the connection is done, with the value of a handler
	// panic (already logged and recovered) or nil.
	End(panicked any)
}

// Lines is a Session with nothing to do at its end: just the dispatch.
type Lines func(toks []string) bool

// Dispatch implements Session.
func (f Lines) Dispatch(toks []string) bool { return f(toks) }

// End implements Session.
func (Lines) End(any) {}

// Serve starts the accept loop on ln. For every accepted connection it
// calls admit on the accept goroutine, so admit can bound concurrency by
// blocking; it must return once closing is closed, and a nil Opener drops
// the connection. A nil logger discards.
func Serve(ln net.Listener, logger *slog.Logger, admit func(closing <-chan struct{}) Opener) *Server {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		ln: ln, logger: logger, admit: admit,
		closing: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Closed reports whether Close has begun.
func (s *Server) Closed() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// Close stops the listener, severs open connections and waits for their
// handlers. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.Closed() {
		s.mu.Unlock()
		return nil
	}
	close(s.closing)
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			if !s.Closed() {
				s.logger.Error("accept failed", "err", err)
			}
			return
		}
		open := s.admit(s.closing)
		if open == nil || !s.track(raw) {
			raw.Close()
			continue
		}
		// The accept loop holds its own count, so this Add cannot race
		// Close's Wait.
		s.wg.Add(1)
		go s.serve(raw, open)
	}
}

// track registers a live connection; it reports false once Close began.
func (s *Server) track(raw net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Closed() {
		return false
	}
	s.conns[raw] = struct{}{}
	return true
}

// serve runs one connection: request/response exchanges until QUIT (a
// dispatch returning false), EOF, a protocol error or Close.
func (s *Server) serve(raw net.Conn, open Opener) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	}()
	conn := NewConn(raw)
	defer conn.Close()
	var sess Session
	defer func() {
		r := recover()
		if r != nil {
			s.logger.Error("connection handler panic", "panic", fmt.Sprint(r))
		}
		if sess != nil {
			sess.End(r)
		}
	}()
	sess = open(conn)
	for {
		toks, err := conn.ReadLine()
		if err != nil {
			if err != io.EOF && !s.Closed() {
				s.logger.Warn("read failed", "err", err)
			}
			return
		}
		if len(toks) > 0 && !sess.Dispatch(toks) {
			return
		}
	}
}
