package daemon

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
)

// ServeControl is the one copy of what every daemon's main used to spell
// out: serve the surface, advertise a dialable address, announce it, take
// it back on stop — and append the client's own counters to /metrics,
// after everything the surface itself writes.
func TestServeControlAnnouncesAndMountsClientMetrics(t *testing.T) {
	srv, _, err := registry.Serve("127.0.0.1:0", registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := registry.NewQuorumClient(srv.Addr())
	surface := obs.Surface{
		Component: "testd",
		Metrics: func() []obs.Metric {
			return []obs.Metric{{Name: "daemon_up", Help: "Always 1.", Type: "gauge", Value: 1}}
		},
	}
	d := &Daemon{Logger: obs.NopLogger(), listen: "127.0.0.1:0"}

	stop := make(chan struct{})
	addr, err := d.ServeControl(c, surface, lbone.ControlInfo{Component: "testd", Name: "testd-0"}, time.Minute, stop)
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
	// The surface's own exposition — its samples through the runtime
	// gauges — then the client's series.
	body := get(addr, "/metrics")
	own, tail, ok := strings.Cut(body, "# HELP registry_client_ops_total ")
	if !ok || !strings.Contains(own, "\ndaemon_up 1\n") || !strings.Contains(own, `build_info{component="testd"`) ||
		!strings.Contains(own, "\ngo_goroutines ") || strings.Contains(tail, "go_goroutines") {
		t.Fatalf("client series not appended after the surface's own:\n%s", body)
	}
	if !strings.Contains(tail, "\nregistry_client_dials_total 1\n") {
		t.Fatalf("client series missing its dial:\n%s", tail)
	}
	if got := get(addr, "/healthz"); got != "ok\n" {
		t.Fatalf("/healthz through ServeControl = %q", got)
	}

	close(stop)
	c.Close()
	if got, err := c.ListControls(); err != nil || len(got) != 0 {
		t.Fatalf("controls after stop = %+v, %v", got, err)
	}

	// Without a registry the surface is still served, untouched; without
	// the flag there is nothing to serve.
	bare, err := d.ServeControl(nil, surface, lbone.ControlInfo{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(bare, "/metrics"); !strings.Contains(got, "\ndaemon_up 1\n") || strings.Contains(got, "registry_client_") {
		t.Fatalf("/metrics with no client = %q, want the surface's own", got)
	}
	if off, err := (&Daemon{}).ServeControl(c, surface, lbone.ControlInfo{}, 0, nil); off != "" || err != nil {
		t.Fatalf("ServeControl with no listen address = %q, %v", off, err)
	}
}
