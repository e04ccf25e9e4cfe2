package registry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
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

// ServeControl is the one copy of what every daemon's main used to spell
// out: serve the mux, advertise a dialable address, announce it, take it
// back on stop — and mount the client's own counters on the mux's
// /metrics, after everything the mux already wrote.
func TestServeControlAnnouncesAndMountsClientMetrics(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	mux := http.NewServeMux()
	own := []obs.Metric{{Name: "daemon_up", Help: "Always 1.", Type: "gauge", Value: 1}}
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric { return own }))
	mux.Handle("/healthz", obs.HealthzHandler(nil))

	stop := make(chan struct{})
	addr, err := ServeControl(c, mux, "127.0.0.1:0", false,
		lbone.ControlInfo{Component: "testd", Name: "testd-0"}, time.Minute, nil, stop)
	if err != nil {
		t.Fatal(err)
	}
	want := lbone.ControlInfo{Addr: addr, Component: "testd", Name: "testd-0"}
	if got, err := c.ListControls(); err != nil || len(got) != 1 || got[0] != want {
		t.Fatalf("controls after ServeControl = %+v, %v", got, err)
	}

	get := func(addr, path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	// The mux's own exposition, byte for byte, then the client's series.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := get(addr, "/metrics")
	if !strings.HasPrefix(body, rec.Body.String()) {
		t.Fatalf("/metrics does not begin with the mux's own exposition:\n%s", body)
	}
	tail := strings.TrimPrefix(body, rec.Body.String())
	if !strings.HasPrefix(tail, "# HELP registry_client_ops_total ") ||
		!strings.Contains(tail, "\nregistry_client_dials_total 3\n") {
		t.Fatalf("client series not appended after the mux's:\n%s", tail)
	}
	if got := get(addr, "/healthz"); got != "ok\n" {
		t.Fatalf("/healthz through ServeControl = %q", got)
	}

	close(stop)
	c.Close()
	if got, err := c.ListControls(); err != nil || len(got) != 0 {
		t.Fatalf("controls after stop = %+v, %v", got, err)
	}

	// Without a registry the endpoint is still served, untouched.
	bare, err := ServeControl(nil, mux, "127.0.0.1:0", false, lbone.ControlInfo{}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(bare, "/metrics"); got != rec.Body.String() {
		t.Fatalf("/metrics with no client = %q, want the mux's own", got)
	}
}
