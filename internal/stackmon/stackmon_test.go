package stackmon

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/testbed"
)

// TestSimAvailabilityMatchesSchedule is the acceptance check: a 24-hour
// virtual study against depots with scripted outages must report
// per-depot availability matching the injected fault schedule. The
// tolerance is two sweep quanta — mid-sweep clock advancement can shift a
// probe across a window boundary by at most a sweep's worth of time.
func TestSimAvailabilityMatchesSchedule(t *testing.T) {
	cfg := SimConfig{
		Depots: []string{"STEADY", "NIGHTLY", "FLAKY"},
		Outages: []SimOutage{
			// NIGHTLY: one 3-hour maintenance window.
			{Depot: "NIGHTLY", From: 6 * time.Hour, To: 9 * time.Hour},
			// FLAKY: three outages totalling 6h.
			{Depot: "FLAKY", From: 1 * time.Hour, To: 3 * time.Hour},
			{Depot: "FLAKY", From: 10 * time.Hour, To: 13 * time.Hour},
			{Depot: "FLAKY", From: 20 * time.Hour, To: 21 * time.Hour},
		},
		Duration: 24 * time.Hour,
		Interval: 5 * time.Minute,
		Seed:     7,
	}
	st, addrOf, _, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	wantSweeps := int(cfg.Duration / cfg.Interval)
	if st.Sweeps != wantSweeps {
		t.Errorf("sweeps = %d, want %d", st.Sweeps, wantSweeps)
	}

	expected := cfg.ExpectedAvailability()
	byAddr := map[string]DepotStudy{}
	for _, d := range st.Depots {
		byAddr[d.Addr] = d
	}
	tolerance := 2 * float64(cfg.Interval) / float64(cfg.Duration)
	for name, want := range expected {
		d, ok := byAddr[addrOf[name]]
		if !ok {
			t.Fatalf("no study row for depot %s (%s)", name, addrOf[name])
		}
		if d.Sweeps != wantSweeps {
			t.Errorf("%s: sweeps = %d, want %d", name, d.Sweeps, wantSweeps)
		}
		if diff := d.Availability - want; diff > tolerance || diff < -tolerance {
			t.Errorf("%s: availability = %.4f, schedule expects %.4f (tolerance %.4f)",
				name, d.Availability, want, tolerance)
		}
	}
	// Sanity-pin the schedule arithmetic itself.
	if want := expected["STEADY"]; want != 1.0 {
		t.Errorf("expected availability for STEADY = %v, want 1.0", want)
	}
	if want := expected["NIGHTLY"]; want < 0.87 || want > 0.88 {
		t.Errorf("expected availability for NIGHTLY = %v, want 21h/24h", want)
	}

	// make stackmon-smoke's study, pinned by exact counts rather than a
	// tolerance: 288 five-minute sweeps, each depot up (and its data round
	// attempted and verified) in exactly the sweeps its windows leave it.
	t.Run("stackmon-smoke", func(t *testing.T) {
		smoke := SimConfig{
			Depots: []string{"D01", "D02", "D03", "D04", "D05", "D06"},
			Outages: []SimOutage{
				{Depot: "D02", From: 6 * time.Hour, To: 9 * time.Hour},
				{Depot: "D05", From: 2 * time.Hour, To: 3*time.Hour + 30*time.Minute},
				{Depot: "D05", From: 11 * time.Hour, To: 14 * time.Hour},
			},
			Duration: 24 * time.Hour,
			Interval: 5 * time.Minute,
			Payload:  16 << 10,
			Seed:     1,
		}
		st, addrOf, _, err := RunSim(smoke)
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		if st.Sweeps != 288 {
			t.Errorf("sweeps = %d, want 288", st.Sweeps)
		}
		byAddr := map[string]DepotStudy{}
		for _, d := range st.Depots {
			byAddr[d.Addr] = d
		}
		wantUp := map[string]int{"D01": 288, "D02": 252, "D03": 288, "D04": 288, "D05": 234, "D06": 288}
		for name, up := range wantUp {
			d := byAddr[addrOf[name]]
			if d.Sweeps != 288 || len(d.Samples) != 288 {
				t.Errorf("%s: sweeps = %d, samples = %d, want 288 and 288", name, d.Sweeps, len(d.Samples))
			}
			if d.Up != up || d.DataAttempts != up || d.DataOK != up {
				t.Errorf("%s: up = %d, data_attempts = %d, data_ok = %d, want %d each",
					name, d.Up, d.DataAttempts, d.DataOK, up)
			}
		}
	})
}

// TestSimDataRounds runs a short study with the store/load round enabled:
// an always-up depot must verify every round, and an outage must depress
// both availability and download success together.
func TestSimDataRounds(t *testing.T) {
	cfg := SimConfig{
		Depots: []string{"GOOD", "BAD"},
		Outages: []SimOutage{
			{Depot: "BAD", From: 1 * time.Hour, To: 2 * time.Hour},
		},
		Duration: 4 * time.Hour,
		Interval: 10 * time.Minute,
		Payload:  8 << 10,
		Seed:     11,
	}
	st, addrOf, _, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	byAddr := map[string]DepotStudy{}
	for _, d := range st.Depots {
		byAddr[d.Addr] = d
	}
	good := byAddr[addrOf["GOOD"]]
	if good.DataAttempts == 0 || good.DataOK != good.DataAttempts {
		t.Errorf("GOOD: data rounds %d/%d, want all ok", good.DataOK, good.DataAttempts)
	}
	if good.MeanMbps <= 0 {
		t.Errorf("GOOD: mean Mbps = %v, want > 0", good.MeanMbps)
	}
	bad := byAddr[addrOf["BAD"]]
	if bad.Availability >= good.Availability {
		t.Errorf("BAD availability %.3f not depressed below GOOD %.3f",
			bad.Availability, good.Availability)
	}
	if bad.DataAttempts <= bad.DataOK {
		// Every attempt follows a successful probe, so mid-round failures
		// are possible but not guaranteed; just require the up-sweeps to
		// have attempted rounds.
		t.Logf("BAD: all %d attempted rounds verified", bad.DataOK)
	}
	if bad.DataAttempts == 0 {
		t.Errorf("BAD: no data rounds attempted despite being up %d sweeps", bad.Up)
	}
}

// TestMonitorMetricsEndpoint scrapes a live monitor's ObsMux and checks
// the acceptance-named series: stackmon_depot_up and the probe-latency
// histogram's _bucket/_sum/_count family.
func TestMonitorMetricsEndpoint(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("stackmon-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("depot.Serve: %v", err)
	}
	defer d.Close()

	mon, err := New(Config{
		Client:  ibp.NewClient(),
		Depots:  []string{d.Addr()},
		Payload: 1 << 10,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mon.Sweep()

	srv := httptest.NewServer(mon.Surface().Mux())
	defer srv.Close()

	body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`stackmon_depot_up{depot="` + d.Addr() + `"} 1`,
		`stackmon_depot_availability_ratio{depot="` + d.Addr() + `"} 1`,
		`stackmon_depot_download_success_ratio{depot="` + d.Addr() + `"} 1`,
		"# TYPE stackmon_probe_latency_seconds histogram",
		`stackmon_probe_latency_seconds_bucket{depot="` + d.Addr() + `",le="+Inf"} 1`,
		`stackmon_probe_latency_seconds_count{depot="` + d.Addr() + `"} 1`,
		"stackmon_sweeps_total 1",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}

	report := get(t, srv.URL+"/report")
	if !strings.Contains(report, d.Addr()) || !strings.Contains(report, `"availability": 1`) {
		t.Errorf("/report missing depot row: %s", report)
	}

	if hz := get(t, srv.URL+"/healthz"); !strings.Contains(hz, "ok") {
		t.Errorf("/healthz = %q, want ok", hz)
	}
}

// TestMonitorDownDepot verifies a dead address reads as down with its
// error retained, and that stackmon_depot_up reports 0.
func TestMonitorDownDepot(t *testing.T) {
	// An address nothing listens on: bind-then-close.
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("x"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("depot.Serve: %v", err)
	}
	addr := d.Addr()
	d.Close()

	mon, err := New(Config{
		Client: ibp.NewClient(ibp.WithDialTimeout(500 * time.Millisecond)),
		Depots: []string{addr},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mon.Sweep()

	st := mon.Snapshot(true)
	if len(st.Depots) != 1 {
		t.Fatalf("depot rows = %d, want 1", len(st.Depots))
	}
	row := st.Depots[0]
	if row.LastUp || row.Availability != 0 || row.LastErr == "" {
		t.Errorf("down depot row = %+v, want down with error", row)
	}

	body := scrape(t, mon)
	if want := `stackmon_depot_up{depot="` + addr + `"} 0`; !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// TestStudyMarkdown pins the report table shape.
func TestStudyMarkdown(t *testing.T) {
	st := Study{
		Started:  testbed.Start,
		Ended:    testbed.Start.Add(24 * time.Hour),
		Interval: 5 * time.Minute,
		Sweeps:   288,
		Depots: []DepotStudy{{
			Addr: "10.0.0.1:6714", Sweeps: 288, Up: 252, Availability: 0.875,
			DataAttempts: 252, DataOK: 250, DownloadSuccess: 250.0 / 252.0,
			MeanProbeLatency: 12 * time.Millisecond, MeanMbps: 3.5,
		}},
	}
	md := st.Markdown()
	for _, want := range []string{
		"| Depot | Sweeps | Availability | Download success | Mean probe | Mean Mbit/s |",
		"| 10.0.0.1:6714 | 288 | 87.50% (252/288) | 99.21% (250/252) | 12ms | 3.50 |",
		"24.0h",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q\n%s", want, md)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}

func scrape(t *testing.T, mon *Monitor) string {
	t.Helper()
	srv := httptest.NewServer(mon.Surface().Mux())
	defer srv.Close()
	return get(t, srv.URL+"/metrics")
}
