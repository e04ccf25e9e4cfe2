package registry

import (
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/vclock"
)

// Regression: a depot must come back after its registry restarts. The
// registry's tables are in memory, so a restarted server is empty; a
// depot that only heartbeats is told NOT_FOUND every interval for ever
// and stays out of every Query until someone restarts the depot too.
// Announcing re-registers instead, so the depot is back within one
// interval — and a depot that stops cleanly is gone at once, not after
// the TTL.
func TestDepotReappearsAfterRegistryRestart(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	const ttl, interval = 5 * time.Minute, time.Minute
	srv, rep, err := Serve("127.0.0.1:0", Config{TTL: ttl, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	depot := NewQuorumClient(addr, WithClock(clk), WithTimeouts(time.Second, 2*time.Second))
	reader := NewQuorumClient(addr, WithClock(clk), WithTimeouts(time.Second, 2*time.Second))
	defer reader.Close()
	// The reader is a second client: what the depot's client writes reaches
	// it when its depot-table snapshot expires, so every look is taken one
	// snapshot TTL after the last.
	listed := func() int {
		t.Helper()
		clk.Advance(depotSnapshotTTL)
		got, err := reader.Query(lbone.Requirements{})
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}

	stop := make(chan struct{})
	if err := depot.AnnounceDepot(testDepot("UTK1"), interval, nil, stop); err != nil {
		t.Fatal(err)
	}
	if listed() != 1 {
		t.Fatal("announced depot not listed")
	}

	// The registry restarts on the same address with an empty table.
	srv.Close()
	srv, err = lbone.ServeRegistry(addr, lbone.ServerConfig{TTL: ttl, Clock: clk, Extension: rep.Handle})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep.Bind(srv)
	if listed() != 0 {
		t.Fatal("restarted registry still lists the depot: the table was not emptied")
	}

	// One interval later the depot is back. (The announce loop runs on its
	// own goroutine; give its exchange a moment of real time to land.)
	waitFor(t, "the announce loop to wait on the clock", func() bool { return clk.PendingWaiters() > 0 })
	clk.Advance(interval)
	waitFor(t, "the depot to re-register within one interval", func() bool { return listed() == 1 })

	// Re-registration never rolls liveness backwards or lets it lapse: many
	// TTLs later the depot is still live.
	for i := 0; i < 12; i++ {
		waitFor(t, "the announce loop to wait on the clock", func() bool { return clk.PendingWaiters() > 0 })
		clk.Advance(interval)
	}
	waitFor(t, "the depot to stay registered past the TTL", func() bool { return listed() == 1 })

	// A clean stop deregisters before Close returns.
	close(stop)
	depot.Close()
	if listed() != 0 {
		t.Fatal("stopped depot still listed: it would linger for the whole TTL")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
