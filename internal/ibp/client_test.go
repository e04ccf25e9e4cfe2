package ibp

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/netx"
	"repro/internal/wire"
)

// scriptServer accepts connections and answers every request line with the
// next canned response, exercising the client's parsing without a real
// depot.
func scriptServer(t *testing.T, responses ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		next := 0
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				conn := wire.NewConn(raw)
				for {
					if _, err := conn.ReadLine(); err != nil {
						return
					}
					resp := "OK"
					if next < len(responses) {
						resp = responses[next]
						next++
					}
					if err := conn.WriteLine(strings.Fields(resp)...); err != nil {
						return
					}
				}
			}(raw)
		}
	}()
	return ln.Addr().String()
}

func testCaps(addr string) (src Cap, dsts []Cap) {
	set := MintSet([]byte("client-test"), addr, strings.Repeat("ab", KeyLen))
	other := MintSet([]byte("client-test"), addr, strings.Repeat("cd", KeyLen))
	third := MintSet([]byte("client-test"), addr, strings.Repeat("ef", KeyLen))
	return set.Read, []Cap{set.Write, other.Write, third.Write}
}

func TestClientConsultsBreakerBeforeDialing(t *testing.T) {
	sb := health.New(health.Config{FailureThreshold: 2, BaseBackoff: time.Hour, Seed: 1})
	dials := 0
	c := NewClient(
		ibpWithCountingDialer(&dials),
		WithHealth(sb),
		WithDialTimeout(50*time.Millisecond),
	)
	addr := "203.0.113.7:6714"
	for i := 0; i < 2; i++ {
		if _, err := c.Status(addr); err == nil {
			t.Fatal("dial should fail")
		}
	}
	if dials != 2 {
		t.Fatalf("dials before trip = %d, want 2", dials)
	}
	if st, _ := sb.State(addr); st != health.StateOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	// Third attempt fails fast without touching the dialer.
	_, err := c.Status(addr)
	if !errors.Is(err, health.ErrCircuitOpen) {
		t.Fatalf("err = %v, want circuit open", err)
	}
	if dials != 2 {
		t.Fatalf("open circuit still dialed (%d dials)", dials)
	}
}

func TestClientReportsSuccessOutcomes(t *testing.T) {
	addr := scriptServer(t, "OK 100 0 3600 4")
	sb := health.New(health.Config{Seed: 1})
	c := NewClient(WithHealth(sb))
	if _, err := c.Status(addr); err != nil {
		t.Fatal(err)
	}
	snap := sb.Snapshot()
	if len(snap) != 1 || snap[0].Successes != 1 || snap[0].State != health.StateClosed {
		t.Fatalf("snapshot after success: %+v", snap)
	}
	if snap[0].Latency.N != 1 {
		t.Fatalf("success latency not recorded: %+v", snap[0].Latency)
	}
}

func TestClientReportsProtocolErrorAsReachable(t *testing.T) {
	addr := scriptServer(t, "ERR NOT_FOUND gone", "ERR NOT_FOUND gone", "ERR NOT_FOUND gone", "ERR NOT_FOUND gone")
	sb := health.New(health.Config{FailureThreshold: 2, Seed: 1})
	c := NewClient(WithHealth(sb))
	m := MintCap([]byte("s"), addr, strings.Repeat("11", KeyLen), CapManage)
	for i := 0; i < 4; i++ {
		if _, err := c.Probe(m); err == nil {
			t.Fatal("probe should report the remote error")
		}
	}
	if st, _ := sb.State(addr); st != health.StateClosed {
		t.Fatal("remote errors must not trip the breaker: depot is reachable")
	}
	if snap := sb.Snapshot(); snap[0].ProtocolErrors != 4 {
		t.Fatalf("protocol errors = %d, want 4", snap[0].ProtocolErrors)
	}
}

// ibpWithCountingDialer counts dial attempts and always fails.
func ibpWithCountingDialer(n *int) Option {
	return WithDialer(netx.DialerFunc(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		*n++
		return nil, &net.OpError{Op: "dial", Net: network, Err: errors.New("unreachable")}
	}))
}
