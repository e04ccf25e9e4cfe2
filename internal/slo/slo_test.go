package slo

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

var testStart = time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)

// testEngine builds an engine with one tight objective so tests can burn
// through the budget quickly: 90% target, fire at 2x burn over 10m/2m.
func testEngine(clk vclock.Clock) *Engine {
	return New(Config{
		Clock:  clk,
		Bucket: time.Minute,
		Objectives: []Objective{{
			Name: "test-obj", SLI: IBPOps, Target: 0.9, Window: time.Hour,
			Rules: []BurnRule{{Name: "r", Long: 10 * time.Minute, Short: 2 * time.Minute, Burn: 2, Severity: "page"}},
		}},
	})
}

func TestBurnMath(t *testing.T) {
	cases := []struct {
		good, bad float64
		target    float64
		want      float64
	}{
		{good: 0, bad: 0, target: 0.99, want: 0},    // no events, no burn
		{good: 99, bad: 1, target: 0.99, want: 1},   // burning exactly at budget
		{good: 90, bad: 10, target: 0.9, want: 1},   // same, looser target
		{good: 0, bad: 10, target: 0.9, want: 10},   // total outage, 10x budget
		{good: 100, bad: 0, target: 0.99, want: 0},  // perfectly healthy
		{good: 50, bad: 50, target: 0.99, want: 50}, // half bad vs 1% budget
		{good: 1, bad: 1, target: 1, want: 0.5e9},   // no budget: the 1e-9 floor
		{good: 7, bad: 0, target: 1, want: 0},       // no budget, nothing bad
	}
	for _, c := range cases {
		if got := Burn(c.good, c.bad, c.target); math.Abs(got-c.want) > 1e-9*math.Max(1, c.want) {
			t.Errorf("Burn(%v, %v, %v) = %v, want %v", c.good, c.bad, c.target, got, c.want)
		}
	}
}

func TestWindowingExcludesOldBuckets(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	e := testEngine(clk)
	// 5 bad events now, then advance past the long window and record 10 good.
	for i := 0; i < 5; i++ {
		e.Record(IBPOps, "d1", false)
	}
	clk.Advance(30 * time.Minute)
	for i := 0; i < 10; i++ {
		e.Record(IBPOps, "d1", true)
	}
	e.mu.Lock()
	s := e.series[sliKey{IBPOps, "d1"}]
	good, bad := s.window(e, clk.Now(), 10*time.Minute)
	e.mu.Unlock()
	if good != 10 || bad != 0 {
		t.Fatalf("10m window = %d good, %d bad; want only the recent 10 good", good, bad)
	}
	if s.totalGood != 10 || s.totalBad != 5 {
		t.Errorf("lifetime totals = %d/%d, want 10/5", s.totalGood, s.totalBad)
	}
}

// TestRecordSamplesOncePerBucket pins what the store costs: one sample of
// each counter per bucket a series records in, none from reads (every
// /metrics scrape evaluates), and no allocation for a Record inside a
// bucket that is already open.
func TestRecordSamplesOncePerBucket(t *testing.T) {
	clk := vclock.NewVirtual(testStart.Add(30 * time.Second))
	e := testEngine(clk)
	for range 3 {
		for i := range 50 {
			e.Record(IBPOps, "d1", i%10 != 0)
			e.Evaluate()
		}
		e.Snapshot()
		e.Metrics()
		clk.Advance(time.Minute)
	}
	inv := e.store.Inventory()
	if inv.SeriesCount != 2 || inv.Series[0].Samples != 3 || inv.Series[1].Samples != 3 {
		t.Fatalf("store holds %+v, want 2 series of 3 samples", inv.Series)
	}
	e.Record(IBPOps, "d1", true) // opens the current bucket
	if n := testing.AllocsPerRun(100, func() { e.Record(IBPOps, "d1", false) }); n != 0 {
		t.Errorf("Record inside an open bucket allocates %v times", n)
	}
	if good, bad := e.series[sliKey{IBPOps, "d1"}].window(e, clk.Now(), 10*time.Minute); good != 136 || bad != 116 {
		t.Errorf("10m window = %d good, %d bad; want 136, 116", good, bad)
	}
}

func TestFireAndResolve(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	var transitions []Alert
	e := testEngine(clk)
	e.cfg.OnAlert = func(a Alert) { transitions = append(transitions, a) }

	// Healthy baseline: plenty of good events, no alert.
	for i := 0; i < 20; i++ {
		e.Record(IBPOps, "d1", true)
	}
	if alerts := e.Evaluate(); len(alerts) != 0 {
		t.Fatalf("healthy engine fired %v", alerts)
	}

	// Outage: every op fails for 3 minutes (spread across buckets so both
	// the short and long windows see the burn).
	for m := 0; m < 3; m++ {
		clk.Advance(time.Minute)
		for i := 0; i < 10; i++ {
			e.Record(IBPOps, "d1", false)
		}
	}
	alerts := e.Evaluate()
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Key != "d1" {
		t.Fatalf("outage did not fire: %v", alerts)
	}
	if alerts[0].BurnLong < 2 || alerts[0].BurnShort < 2 {
		t.Errorf("burn rates %v / %v below threshold yet fired", alerts[0].BurnLong, alerts[0].BurnShort)
	}
	if len(transitions) != 1 || !transitions[0].Firing {
		t.Fatalf("OnAlert transitions = %+v, want one fire", transitions)
	}

	// Still firing while the long window keeps the bad events in view,
	// even though the short window has gone quiet.
	clk.Advance(5 * time.Minute)
	if alerts := e.Evaluate(); len(alerts) != 1 {
		t.Fatalf("alert resolved too early: %v", alerts)
	}

	// Once the bad events age out of the 10m long window, it resolves.
	clk.Advance(10 * time.Minute)
	for i := 0; i < 10; i++ {
		e.Record(IBPOps, "d1", true)
	}
	if alerts := e.Evaluate(); len(alerts) != 0 {
		t.Fatalf("alert did not resolve: %v", alerts)
	}
	if len(transitions) != 2 || transitions[1].Firing {
		t.Fatalf("OnAlert transitions = %+v, want fire then resolve", transitions)
	}

	firings := e.Firings()
	if len(firings) != 1 {
		t.Fatalf("Firings() = %+v, want one closed interval", firings)
	}
	f := firings[0]
	if f.ResolvedAt.IsZero() || !f.ResolvedAt.After(f.FiredAt) || f.PeakBurn < 2 {
		t.Errorf("firing interval malformed: %+v", f)
	}
}

// TestLatQuantilesSharedEstimator pins the SLO call site of the shared
// histogram-quantile estimator (stats.HistogramQuantile) on the edge
// cases its golden tests cover: empty ring, a single bucket's worth of
// samples, and samples landing in the +Inf bucket.
func TestLatQuantilesSharedEstimator(t *testing.T) {
	clk := vclock.NewVirtual(testStart)

	// Empty histogram: no samples recorded yet, quantiles stay zero.
	e := testEngine(clk)
	e.mu.Lock()
	s := e.seriesFor(sliKey{IBPOps, "empty"})
	p50, p95, p99 := s.latQuantiles()
	e.mu.Unlock()
	if p50 != 0 || p95 != 0 || p99 != 0 {
		t.Fatalf("empty ring quantiles = %v/%v/%v, want zeros", p50, p95, p99)
	}

	// Single bucket: every sample in (0.025, 0.05] — the estimator
	// interpolates inside that one bucket, never escaping its bounds.
	for i := 0; i < 8; i++ {
		e.RecordLatency(IBPOps, "d1", 0.04)
	}
	e.mu.Lock()
	s = e.seriesFor(sliKey{IBPOps, "d1"})
	p50, _, p99 = s.latQuantiles()
	e.mu.Unlock()
	if p50 <= 0.025 || p50 > 0.05 || p99 <= 0.025 || p99 > 0.05 {
		t.Fatalf("single-bucket quantiles p50=%v p99=%v escaped (0.025, 0.05]", p50, p99)
	}

	// +Inf bucket: samples beyond the highest finite bound (60s) clamp to
	// it instead of inventing a value inside an unbounded bucket.
	for i := 0; i < 8; i++ {
		e.RecordLatency(IBPOps, "d2", 120)
	}
	e.mu.Lock()
	s = e.seriesFor(sliKey{IBPOps, "d2"})
	_, _, p99 = s.latQuantiles()
	e.mu.Unlock()
	if p99 != 60 {
		t.Fatalf("+Inf-bucket p99 = %v, want clamp to highest finite bound 60", p99)
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var e *Engine
	e.Record(IBPOps, "d1", true)
	e.RecordLatency(IBPOps, "d1", 0.1)
	if e.Evaluate() != nil || e.Firings() != nil || e.Objectives() != nil || e.Metrics() != nil {
		t.Error("nil engine returned non-nil results")
	}
	st := e.Snapshot()
	if len(st.Objectives) != 0 {
		t.Error("nil engine snapshot has objectives")
	}
}

func TestObserveIBPAdapter(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	e := testEngine(clk)
	o := ObserveIBP(e)
	o.Record(obs.Event{Verb: "LOAD", Depot: "d1", Latency: 50 * time.Millisecond})
	o.Record(obs.Event{Verb: "STORE", Depot: "d1", Err: "refused"})
	o.Record(obs.Event{Verb: "HEDGE", Depot: "d1"})  // synthetic: skipped
	o.Record(obs.Event{Verb: "DOWNLOAD", Depot: ""}) // tool root span: skipped
	o.Record(obs.Event{Verb: "PROBE", Depot: ""})    // no depot: skipped

	e.mu.Lock()
	s := e.series[sliKey{IBPOps, "d1"}]
	e.mu.Unlock()
	if s == nil || s.totalGood != 1 || s.totalBad != 1 {
		t.Fatalf("adapter recorded %+v, want 1 good + 1 bad", s)
	}
	if s.lat.Len() != 1 {
		t.Errorf("latency samples = %d, want 1 (successes only)", s.lat.Len())
	}
}

func TestObserveRegistryAdapter(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	e := New(Config{Clock: clk, Bucket: time.Minute})
	o := ObserveRegistry(e)
	o("r1:6767", true)
	o("r1:6767", false)
	o("r2:6767", true)

	e.mu.Lock()
	s1 := e.series[sliKey{RegistryAvailability, "r1:6767"}]
	s2 := e.series[sliKey{RegistryAvailability, "r2:6767"}]
	e.mu.Unlock()
	if s1 == nil || s1.totalGood != 1 || s1.totalBad != 1 {
		t.Fatalf("r1 series %+v, want 1 good + 1 bad", s1)
	}
	if s2 == nil || s2.totalGood != 1 || s2.totalBad != 0 {
		t.Fatalf("r2 series %+v, want 1 good", s2)
	}
}

func TestMetricsAndHandler(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	e := testEngine(clk)
	for m := 0; m < 3; m++ {
		clk.Advance(time.Minute)
		for i := 0; i < 10; i++ {
			e.Record(IBPOps, "d1", false)
		}
	}
	e.RecordLatency(IBPOps, "d1", 0.05)

	names := map[string]bool{}
	for _, m := range e.Metrics() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"slo_sli_good_total", "slo_sli_bad_total", "slo_sli_latency_seconds",
		"slo_error_budget_remaining_ratio", "slo_alert_firing", "slo_burn_rate",
	} {
		if !names[want] {
			t.Errorf("metric %s missing from %v", want, names)
		}
	}

	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("/slo = %d", rr.Code)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("/slo body not JSON: %v", err)
	}
	if len(st.Alerts) != 1 || st.Alerts[0].Key != "d1" {
		t.Fatalf("/slo alerts = %+v", st.Alerts)
	}

	rendered := Render(st)
	for _, want := range []string{"test-obj", "firing alerts:", "key=d1"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("Render missing %q:\n%s", want, rendered)
		}
	}
	if keys := SortedAlertKeys(st.Alerts); len(keys) != 1 || keys[0] != "d1" {
		t.Errorf("SortedAlertKeys = %v", keys)
	}
}

func TestAlertTransitionReachesRecorder(t *testing.T) {
	clk := vclock.NewVirtual(testStart)
	rec := obs.NewFlightRecorder(32)
	e := testEngine(clk)
	e.cfg.Recorder = rec
	for m := 0; m < 3; m++ {
		clk.Advance(time.Minute)
		for i := 0; i < 10; i++ {
			e.Record(IBPOps, "d1", false)
		}
	}
	e.Evaluate()
	var alertEntries int
	for _, en := range rec.Recent(0) {
		if en.Kind == obs.KindAlert && en.Depot == "d1" {
			alertEntries++
		}
	}
	if alertEntries != 1 {
		t.Fatalf("recorder retained %d alert entries, want 1", alertEntries)
	}
}
