package wire

import (
	"errors"
	"net"
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
	// The deadline read sees a closed peer only where the transport
	// reports it ahead of the deadline, as net.Pipe does (TCP does not).
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
