package wire

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// hidden wraps a conn so that only the net.Conn methods show, as the
// stack's dialer wrappers do.
type hidden struct{ net.Conn }

// waitFor polls cond: the peer's FIN or bytes cross loopback
// asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCheckIdle(t *testing.T) {
	wrap := map[string]func(net.Conn) net.Conn{
		"socket":  func(c net.Conn) net.Conn { return c },
		"wrapped": func(c net.Conn) net.Conn { return hidden{c} },
	}
	for name, w := range wrap {
		t.Run(name+"/live", func(t *testing.T) {
			raw, server := tcpPair(t)
			conn := NewConn(w(raw))
			// An expired deadline left by the last exchange must not read
			// as a dead peer, and the check must leave none behind.
			conn.SetDeadline(time.Now().Add(-time.Second))
			if err := conn.CheckIdle(); err != nil {
				t.Fatalf("idle live connection: %v", err)
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			go NewConn(server).WriteOK()
			if _, err := conn.ReadStatus(); err != nil {
				t.Fatalf("exchange after the check: %v", err)
			}
		})
	}
	t.Run("socket/unsolicited", func(t *testing.T) {
		raw, server := tcpPair(t)
		conn := NewConn(raw)
		if err := NewConn(server).WriteOK(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "unsolicited bytes", func() bool { return errors.Is(conn.CheckIdle(), ErrUnsolicited) })
	})
	t.Run("socket/closed", func(t *testing.T) {
		raw, server := tcpPair(t)
		conn := NewConn(raw)
		server.Close()
		waitFor(t, "peer close", func() bool { return conn.CheckIdle() != nil })
	})
	// A connection with no socket underneath gets the deadline read, which
	// sees a closed peer where the transport reports it ahead of the
	// deadline, as net.Pipe does.
	t.Run("pipe", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		conn := NewConn(a)
		if err := conn.CheckIdle(); err != nil {
			t.Fatalf("idle live pipe: %v", err)
		}
		b.Close()
		if err := conn.CheckIdle(); err == nil {
			t.Fatal("closed pipe passed the idle check")
		}
	})
}

// TestCheckIdleThroughWrapper checks a parked connection through a
// struct{ net.Conn } wrapper, the shape of a dialer that overrides Close:
// the check must find the socket under it, see a closed or reset peer,
// pass a live one, and allocate nothing once the socket is found.
func TestCheckIdleThroughWrapper(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		raw, server := tcpPair(t)
		conn := NewConn(hidden{raw})
		server.Close()
		var err error
		waitFor(t, "peer close", func() bool { err = conn.CheckIdle(); return err != nil })
		if !errors.Is(err, io.EOF) {
			t.Fatalf("closed peer: got %v, want io.EOF", err)
		}
	})
	t.Run("reset", func(t *testing.T) {
		raw, server := tcpPair(t)
		conn := NewConn(hidden{raw})
		server.(*net.TCPConn).SetLinger(0)
		server.Close()
		waitFor(t, "peer reset", func() bool { return conn.CheckIdle() != nil })
	})
	t.Run("live", func(t *testing.T) {
		raw, _ := tcpPair(t)
		conn := NewConn(hidden{raw})
		if err := conn.CheckIdle(); err != nil {
			t.Fatalf("idle live connection: %v", err)
		}
		if raceEnabled {
			return // the race detector's own bookkeeping allocates
		}
		for i := 0; i < 100; i++ {
			conn.CheckIdle()
		}
		const checks = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < checks; i++ {
			if err := conn.CheckIdle(); err != nil {
				t.Fatalf("check %d: %v", i, err)
			}
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("%d checks allocated %d times, want 0", checks, n)
		}
	})
}
