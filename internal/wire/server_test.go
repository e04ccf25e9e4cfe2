package wire

import (
	"net"
	"testing"
	"time"
)

// A bounded server (admit blocks for a free slot, as the depot's does)
// serves its one slot, leaves the next connection waiting in admit, and
// still shuts down at once: Close releases the waiting admit and severs
// the idle connection holding the slot.
func TestServerBoundedAdmitAndClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slots := make(chan struct{}, 1)
	ended := make(chan any, 2)
	var srv *Server
	srv = Serve(ln, nil, func(closing <-chan struct{}) Opener {
		select {
		case slots <- struct{}{}:
		case <-closing:
			return nil
		}
		return func(c *Conn) Session { return &echo{c: c, ended: ended, slots: slots} }
	})
	dial := func() *Conn {
		t.Helper()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { raw.Close() })
		raw.SetDeadline(time.Now().Add(5 * time.Second))
		return NewConn(raw)
	}
	first := dial()
	if err := first.WriteLine("PING"); err != nil {
		t.Fatal(err)
	}
	if toks, err := first.ReadStatus(); err != nil || len(toks) != 1 || toks[0] != "PING" {
		t.Fatalf("PING = %q, %v", toks, err)
	}
	waiting := dial()
	if err := waiting.WriteLine("PING"); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting after 1s")
	}
	if got := <-ended; got != nil {
		t.Fatalf("End(%v), want nil", got)
	}
	if len(ended) != 0 {
		t.Fatal("the connection waiting in admit was opened")
	}
	for _, c := range []*Conn{first, waiting} {
		if _, err := c.ReadLine(); err == nil {
			t.Fatal("connection still open after Close")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// echo answers every request line with OK and the line's first token.
type echo struct {
	c     *Conn
	ended chan any
	slots chan struct{}
}

func (e *echo) Dispatch(toks []string) bool { return e.c.WriteOK(toks[0]) == nil }

func (e *echo) End(panicked any) {
	<-e.slots
	e.ended <- panicked
}
