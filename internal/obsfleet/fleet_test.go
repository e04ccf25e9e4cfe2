package obsfleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/slo"
)

const testTrace = "feedc0de00112233"

// newDepotMember serves the depot-side shapes: /metrics and /trace/<id>
// with []depot.ServerSpan.
func newDepotMember(t *testing.T, spans []depot.ServerSpan) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		return []obs.Metric{
			{Name: "ibp_depot_ops_total", Type: "counter", Value: 5,
				Labels: []obs.Label{{Name: "verb", Value: "load"}}},
		}
	}))
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if !obs.ValidTraceID(id) {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		var match []depot.ServerSpan
		for _, s := range spans {
			if s.TraceID == id {
				match = append(match, s)
			}
		}
		if len(match) == 0 {
			http.Error(w, "no spans", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(match)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// newRecorderMember serves the generic daemon shapes: /metrics, /slo,
// /trace/<id> from a flight recorder, /postmortem/<trace>.
func newRecorderMember(t *testing.T, fr *obs.FlightRecorder, st *slo.Status) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		return append([]obs.Metric{
			{Name: "repair_passes_total", Type: "counter", Value: 2,
				Labels: []obs.Label{{Name: "shard", Value: "0/1"}}},
		}, fr.RingMetrics()...)
	}))
	mux.Handle("/trace/", obs.TraceJSONHandler(fr))
	mux.Handle("/postmortem/", obs.PostmortemHandler(fr, "maintaind", time.Now))
	if st != nil {
		mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(st)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func addrOf(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

func ctrl(srv *httptest.Server, component, name string) lbone.ControlInfo {
	return lbone.ControlInfo{Addr: addrOf(srv), Component: component, Name: name}
}

func newTestFleet(t *testing.T) (*Aggregator, string) {
	t.Helper()
	start := time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)
	depotSrv := newDepotMember(t, []depot.ServerSpan{{
		TraceID: testTrace, SpanID: "d1", Parent: "c1", Verb: "LOAD",
		Start: start.Add(10 * time.Millisecond), Total: 5 * time.Millisecond, Bytes: 4096,
	}})
	fr := obs.NewFlightRecorder(32)
	fr.Add(obs.Entry{Kind: obs.KindEvent, Trace: testTrace, Verb: "DOWNLOAD",
		Time: start, Outcome: "success", Bytes: 4096})
	recSrv := newRecorderMember(t, fr, nil)

	// The down member: a server that is already closed.
	downSrv := httptest.NewServer(http.NotFoundHandler())
	downAddr := addrOf(downSrv)
	downSrv.Close()

	a := New(Config{Static: []lbone.ControlInfo{
		ctrl(depotSrv, "ibp-depot", "D1"),
		ctrl(recSrv, "maintaind", "M0"),
		{Addr: downAddr, Component: "xnd", Name: "gone"},
	}})
	a.Sweep()
	return a, downAddr
}

// TestFleetEndpointHardening is the table-driven hardening pass over
// /fleet/trace/<id> and /fleet/slo: malformed input, unknown IDs,
// partial fleets.
func TestFleetEndpointHardening(t *testing.T) {
	a, _ := newTestFleet(t)
	ui := httptest.NewServer(a.Surface().Mux())
	defer ui.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		wantStatus int
		wantBody   []string // substrings that must appear
	}{
		{name: "trace malformed uppercase", method: "GET",
			path: "/fleet/trace/FEEDC0DE", wantStatus: 400},
		{name: "trace malformed nonhex", method: "GET",
			path: "/fleet/trace/zz..zz", wantStatus: 400},
		{name: "trace malformed empty", method: "GET",
			path: "/fleet/trace/", wantStatus: 400},
		{name: "trace malformed overlong", method: "GET",
			path: "/fleet/trace/" + strings.Repeat("ab", 40), wantStatus: 400},
		{name: "trace post rejected", method: "POST",
			path: "/fleet/trace/" + testTrace, wantStatus: 405},
		{name: "trace unknown id is partial not 404 while a member is down", method: "GET",
			path: "/fleet/trace/0123456789abcdef", wantStatus: 200,
			wantBody: []string{`"partial": true`, `"unreachable"`}},
		{name: "trace known id joins members", method: "GET",
			path: "/fleet/trace/" + testTrace, wantStatus: 200,
			wantBody: []string{`"server-span"`, `"DOWNLOAD"`, `"ibp-depot"`, `"maintaind"`}},
		{name: "slo post rejected", method: "POST",
			path: "/fleet/slo", wantStatus: 405},
		{name: "slo partial flags down member", method: "GET",
			path: "/fleet/slo", wantStatus: 200,
			wantBody: []string{`"partial": true`, `"up": false`}},
		{name: "report lists down member", method: "GET",
			path: "/fleet/report", wantStatus: 200,
			wantBody: []string{`"partial": true`, `"gone"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, ui.URL+c.path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body strings.Builder
			if _, err := copyBody(&body, resp); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d; body:\n%s", resp.StatusCode, c.wantStatus, body.String())
			}
			for _, want := range c.wantBody {
				if !strings.Contains(body.String(), want) {
					t.Errorf("body missing %q:\n%s", want, body.String())
				}
			}
		})
	}
}

func copyBody(b *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32<<10)
	var n int64
	for {
		m, err := resp.Body.Read(buf)
		b.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestFleetTraceUnknownIs404WhenFleetHealthy: with every member
// answering, an unknown trace is a real 404 — unknown and unreachable
// must stay distinguishable.
func TestFleetTraceUnknownIs404WhenFleetHealthy(t *testing.T) {
	depotSrv := newDepotMember(t, nil)
	fr := obs.NewFlightRecorder(8)
	recSrv := newRecorderMember(t, fr, nil)
	a := New(Config{Static: []lbone.ControlInfo{
		ctrl(depotSrv, "ibp-depot", "D1"), ctrl(recSrv, "maintaind", "M0"),
	}})
	a.Sweep()
	ui := httptest.NewServer(a.Surface().Mux())
	defer ui.Close()
	resp, err := http.Get(ui.URL + "/fleet/trace/0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestFleetTraceFallsBackToPostmortem: when the live ring aged the
// entries out but a bundle retains them, assembly uses the bundle.
func TestFleetTraceFallsBackToPostmortem(t *testing.T) {
	fr := obs.NewFlightRecorder(8)
	fr.StoreBundle(obs.Bundle{
		Trace: testTrace, Reason: "transfer-failure", Component: "maintaind",
		Entries: []obs.Entry{{Kind: obs.KindEvent, Trace: testTrace, Verb: "STORE",
			Time: time.Date(2002, 1, 11, 15, 0, 1, 0, time.UTC), Outcome: "timeout"}},
	})
	recSrv := newRecorderMember(t, fr, nil)
	a := New(Config{Static: []lbone.ControlInfo{ctrl(recSrv, "maintaind", "M0")}})
	a.Sweep()
	ft := a.AssembleTrace(testTrace)
	if len(ft.Spans) != 1 || ft.Spans[0].Source != "postmortem" {
		t.Fatalf("want 1 postmortem span, got %+v", ft.Spans)
	}
	if ft.Spans[0].Verb != "STORE" || ft.Spans[0].Outcome != "timeout" {
		t.Errorf("span content wrong: %+v", ft.Spans[0])
	}
}

// TestAlertTriggeredProfileCapture: the none->firing edge on a member's
// /slo triggers a heap capture into ProfileDir; a still-firing alert on
// the next sweep does not re-capture.
func TestAlertTriggeredProfileCapture(t *testing.T) {
	status := &slo.Status{}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		return []obs.Metric{{Name: "x_total", Type: "counter", Value: 1}}
	}))
	var mu sync.Mutex
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		json.NewEncoder(w).Encode(status)
	})
	mux.HandleFunc("/debug/pprof/heap", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("pprof-heap-bytes"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	dir := t.TempDir()
	a := New(Config{
		Static:     []lbone.ControlInfo{ctrl(srv, "ibp-depot", "D1")},
		ProfileDir: dir,
	})

	a.Sweep() // healthy: no alerts
	if got := a.Profiles(); len(got) != 0 {
		t.Fatalf("no capture expected while healthy, got %+v", got)
	}

	mu.Lock()
	status.Alerts = []slo.Alert{{
		Objective: "depot-availability", Rule: "fast-burn", Key: "d1:6714",
		Severity: "page", Firing: true, BurnLong: 20,
	}}
	mu.Unlock()

	a.Sweep() // edge: capture fires
	got := a.Profiles()
	if len(got) != 1 {
		t.Fatalf("want 1 capture after the firing edge, got %d: %+v", len(got), got)
	}
	if got[0].Kind != "heap" || got[0].Err != "" {
		t.Fatalf("capture wrong: %+v", got[0])
	}
	data, err := os.ReadFile(got[0].Path)
	if err != nil || string(data) != "pprof-heap-bytes" {
		t.Fatalf("profile file wrong: %v %q", err, data)
	}
	if !strings.HasPrefix(filepath.Base(got[0].Path), "PROFILE_") {
		t.Errorf("profile name %q missing PROFILE_ prefix", got[0].Path)
	}

	a.Sweep() // still firing: no new edge, no re-capture
	if got := a.Profiles(); len(got) != 1 {
		t.Fatalf("still-firing alert must not re-capture, got %d", len(got))
	}
}

// TestMemberRestartDetection: a member whose process_uptime_seconds goes
// backwards between sweeps restarted — obsd counts the verdict once per
// drop, exposes it as fleet_member_restarts_total, and records both the
// uptime gauge and the restart counter into the time-series store so the
// per-series counter-reset accounting has something to corroborate.
func TestMemberRestartDetection(t *testing.T) {
	var mu sync.Mutex
	uptime := 100.0
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		mu.Lock()
		defer mu.Unlock()
		return []obs.Metric{{Name: "process_uptime_seconds", Type: "gauge",
			Help: "Seconds since start.", Value: uptime}}
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	addr := addrOf(srv)
	setUptime := func(v float64) { mu.Lock(); uptime = v; mu.Unlock() }

	a := New(Config{Static: []lbone.ControlInfo{ctrl(srv, "xnd", "restarter")}})
	a.Sweep() // baseline
	setUptime(150)
	a.Sweep() // uptime grew: not a restart
	if strings.Contains(a.Surface().Exposition(), "fleet_member_restarts_total") {
		t.Fatal("restart counter exposed before any restart")
	}
	setUptime(5)
	a.Sweep() // uptime dropped: the process restarted in between
	setUptime(60)
	a.Sweep() // growing again: still just the one restart

	want := fmt.Sprintf("fleet_member_restarts_total{member=%q} 1", addr)
	if expo := a.Surface().Exposition(); !strings.Contains(expo, want) {
		t.Errorf("exposition missing %q:\n%s", want, expo)
	}

	// The store retains the verdict as a counter series and the raw
	// uptime gauge it was derived from.
	views := a.Store().Select("fleet_member_restarts_total", nil)
	if len(views) != 1 || views[0].Points[len(views[0].Points)-1].V != 1 {
		t.Fatalf("restart counter series wrong: %+v", views)
	}
	up := a.Store().Select("member_uptime_seconds", nil)
	if len(up) != 1 || len(up[0].Points) != 4 {
		t.Fatalf("uptime series wrong: %+v", up)
	}
	if up[0].Resets != 1 {
		t.Errorf("uptime series saw %d resets, want 1 (the drop 150 -> 5)", up[0].Resets)
	}
}

// TestScrapeRaceAgainstLiveCollector hammers a collector with traced
// records while the aggregator scrapes its live /metrics: every scrape
// must parse cleanly (no torn exposition) and the race detector must
// stay quiet.
func TestScrapeRaceAgainstLiveCollector(t *testing.T) {
	c := obs.NewCollector(64)
	fr := obs.NewFlightRecorder(64)
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(func() []obs.Metric {
		return append(c.CollectorMetrics("ibp_client_"), fr.RingMetrics()...)
	}))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Record(obs.Event{
					Verb: "LOAD", Depot: fmt.Sprintf("d%d:6714", g),
					Latency: time.Duration(i%40) * time.Millisecond,
					Trace:   "aabbccdd00112233", Span: "01",
				})
				fr.Add(obs.Entry{Kind: obs.KindEvent, Msg: "op"})
				i++
			}
		}(g)
	}

	a := New(Config{Static: []lbone.ControlInfo{ctrl(srv, "xnd", "client")}})
	for i := 0; i < 25; i++ {
		a.Sweep()
		for _, m := range a.Snapshot() {
			if !m.up {
				t.Fatalf("sweep %d: scrape failed: %s", i, m.lastErr)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSelfScrapeDoesNotCompound pins the aggregator-feedback guard: obsd
// announces its own control endpoint, so the fleet view includes the
// aggregator itself. Its /metrics re-exposes fleet_ aggregates — if those
// were re-ingested like member truth, every sweep would wrap them in one
// more fleet_ prefix and the store would grow a fresh family per sweep.
func TestSelfScrapeDoesNotCompound(t *testing.T) {
	a := New(Config{})
	srv := httptest.NewServer(a.Surface().Mux())
	t.Cleanup(srv.Close)
	// Point the aggregator at its own scrape surface, exactly what CLIST
	// discovery does to a deployed obsd.
	a.cfg.Static = []lbone.ControlInfo{ctrl(srv, "obsd", "self")}

	for i := 0; i < 4; i++ {
		a.Sweep()
	}
	for _, m := range a.Snapshot() {
		if !m.up {
			t.Fatalf("self scrape failed: %s", m.lastErr)
		}
	}
	if exp := a.Surface().Exposition(); strings.Contains(exp, "fleet_fleet_") {
		t.Fatalf("exposition re-wrapped aggregator families:\n%s", exp)
	}
	inv := a.Store().Inventory()
	for _, sv := range inv.Series {
		if strings.HasPrefix(sv.Name, "fleet_fleet_") {
			t.Fatalf("store ingested a re-wrapped family %q", sv.Name)
		}
	}
	// The guard must not starve the store: the self-member's own truth
	// (obsd_* counters, process gauges) still lands as fleet_ rows.
	if len(a.Store().Select("fleet_obsd_sweeps_total", nil)) == 0 {
		t.Fatalf("self member's non-fleet families were dropped too; inventory: %d series", inv.SeriesCount)
	}
}
