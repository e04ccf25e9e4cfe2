package ibp

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

// stallServer answers a LOAD status line and then hangs without sending the
// blob until the client tears the connection down.
func stallServer(t *testing.T, length int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				conn := wire.NewConn(raw)
				if _, err := conn.ReadLine(); err != nil {
					return
				}
				if err := conn.WriteLine("OK", wire.Itoa(length)); err != nil {
					return
				}
				// Never send the blob: block until the peer closes.
				buf := make([]byte, 1)
				raw.Read(buf)
			}(raw)
		}
	}()
	return ln.Addr().String()
}

func TestLoadCancelAbandonsStalledLoad(t *testing.T) {
	addr := stallServer(t, 64)
	sb := health.New(health.Config{Seed: 1})
	col := obs.NewCollector(8)
	c := NewClient(WithHealth(sb), WithObserver(col), WithOpTimeout(time.Minute))
	r := MintCap([]byte("s"), addr, strings.Repeat("11", KeyLen), CapRead)

	cancel := make(chan struct{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(cancel)
	}()
	start := time.Now()
	err := c.LoadIntoCancel(make([]byte, 64), r, 0, cancel)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancel took %v; the conn teardown did not unblock the read", d)
	}
	// Cancellation is not the depot's fault: the Allow check may have
	// created the depot entry, but no outcome may be recorded against it.
	for _, d := range sb.Snapshot() {
		if d.Successes+d.Timeouts+d.Refusals+d.NetErrors+d.ProtocolErrors != 0 {
			t.Fatalf("health scoreboard saw a cancelled op: %+v", d)
		}
	}
	// The observer does see it, labelled as a cancellation.
	evs := col.Recent(0)
	if len(evs) != 1 || evs[0].Outcome != "cancelled" {
		t.Fatalf("events = %+v, want one cancelled", evs)
	}
}

func TestLoadCancelPreCancelledSkipsDial(t *testing.T) {
	dials := 0
	c := NewClient(ibpWithCountingDialer(&dials))
	r := MintCap([]byte("s"), "203.0.113.9:6714", strings.Repeat("22", KeyLen), CapRead)
	cancel := make(chan struct{})
	close(cancel)
	if err := c.LoadIntoCancel(make([]byte, 8), r, 0, cancel); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if dials != 0 {
		t.Fatalf("pre-cancelled load dialed %d times", dials)
	}
}

func TestLoadCancelNilCancelCompletes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	payload := []byte("hello world")
	go func() {
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
					if err := conn.WriteLine("OK", wire.Itoa(int64(len(payload)))); err != nil {
						return
					}
					if err := conn.WriteBlob(payload); err != nil {
						return
					}
				}
			}(raw)
		}
	}()
	addr := ln.Addr().String()
	r := MintCap([]byte("s"), addr, strings.Repeat("33", KeyLen), CapRead)
	got := make([]byte, len(payload))
	if err := NewClient().LoadIntoCancel(got, r, 0, nil); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestIsConnReuseErrorIgnoresCancellation(t *testing.T) {
	// A cancelled exchange must never trigger the stale-pooled-conn retry:
	// the retry would re-issue the load the race already abandoned.
	if isConnReuseError(ErrCancelled) {
		t.Fatal("ErrCancelled must not look like a stale pooled connection")
	}
}
