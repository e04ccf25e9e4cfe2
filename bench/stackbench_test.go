package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestOpSequenceFollowsSeed(t *testing.T) {
	m := mix{downloadFrac: 0.5, objects: 2048, zipfS: 0.99, minSize: 1 << 10, maxSize: 16 << 10, layouts: 3, rotations: 4}
	a, b := opSequenceHash(7, 400, m, m), opSequenceHash(7, 400, m, m)
	if a != b {
		t.Fatalf("one seed gave two sequences: %s and %s", a, b)
	}
	if c := opSequenceHash(8, 400, m, m); c == a {
		t.Fatalf("seeds 7 and 8 gave the same sequence %s", a)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestMedianSpreadReadsNoiseNotALevelShift(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.1, 9.9}
	shifted := []float64{10, 10.1, 9.9, 20, 20.1, 19.9} // a depot died at mid-window
	noisy := []float64{10, 13, 8, 12, 7, 11}
	if s := medianSpread(shifted); s > 2*medianSpread(steady) {
		t.Errorf("a level shift reads as spread: %.4f against %.4f without it", s, medianSpread(steady))
	}
	if s := medianSpread(noisy); s < 10*medianSpread(steady) {
		t.Errorf("noise does not read as spread: %.4f against %.4f", s, medianSpread(steady))
	}
	if s := medianSpread([]float64{5}); s != 0 {
		t.Errorf("one sample has spread %v", s)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"nested", []interval{{110, 160}, {120, 130}}, 50},
		{"overlapping", []interval{{110, 150}, {140, 180}}, 30},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"clipped to the parent", []interval{{50, 110}, {190, 400}}, 80},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
		{"covers the parent", []interval{{0, 1000}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestPerLayerSplitsACallIntoItsLayers(t *testing.T) {
	// One download: a 100 us Tools call holding a 20 us directory get and
	// two verbs, one with a depot-reported span, the second dialled.
	spans := []span{
		{ID: 1, Op: 1, Layer: layerOp, Name: "download", Start: 0, End: 110_000, Sampled: true},
		{ID: 2, Parent: 1, Op: 1, Layer: layerCore, Name: "DownloadByName", Start: 0, End: 100_000},
		{ID: 3, Parent: 2, Op: 1, Layer: layerRegistry, Name: "get", Start: 5_000, End: 25_000},
		{ID: 4, Parent: 2, Op: 1, Layer: layerIBP, Name: "LOAD", Start: 30_000, End: 60_000, Outcome: "success", Bytes: 1000,
			HasServer: true, QueueNS: 1_000, BackendNS: 9_000, TotalNS: 15_000},
		{ID: 5, Parent: 2, Op: 1, Layer: layerIBP, Name: "LOAD", Start: 60_000, End: 90_000, Outcome: "refused", Dialed: true},
		{ID: 6, Parent: 1, Op: 1, Layer: layerBench, Name: "verify", Start: 100_000, End: 110_000},
	}
	ops := []sample{{kind: opDownload, lat: 100 * time.Microsecond, bytes: 1000, extents: 1, attempts: 2, failovers: 1}}
	m := perLayer(spans, ops, counterSet{})
	for name, want := range map[string]float64{
		"ibp.verbs_per_user_op":         2,
		"ibp.dials_per_user_op":         1,
		"ibp.busy_frac":                 0.6,
		"ibp.failed_verb_frac":          0.5,
		"ibp.verb_frac_refused":         0.5,
		"ibp.wire_bytes_per_user_byte":  1,
		"registry.get_us":               20,
		"registry.share_of_op":          0.2,
		"core.self_us_per_download":     20,
		"core.self_frac_download":       0.2,
		"core.attempts_per_extent":      2,
		"core.failovers_per_download":   1,
		"depot.backend_us_per_load":     9,
		"depot.queue_wait_us_per_verb":  1,
		"depot.server_self_us_per_verb": 5,
		"ibp.client_self_us_per_verb":   22.5, // (30-15) + 30, over two verbs
		"trace.residual_frac":           0,
	} {
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	rel := metricSpec{Name: "ops_per_s", Better: higher, Bound: 0.10}
	lowerRel := metricSpec{Name: "download_p50_ms", Better: lower, Bound: 0.10}
	abs := metricSpec{Name: "failed_op_frac", Better: lower, Bound: 0.001, absolute: true}
	for _, tc := range []struct {
		name               string
		spec               metricSpec
		base, cand, spread float64
		want               verdict
	}{
		{"higher-is-better, fell inside the bound", rel, 100, 95, 0.02, verdictOK},
		{"higher-is-better, fell past the bound", rel, 100, 85, 0.02, verdictWorse},
		{"higher-is-better, rose", rel, 100, 150, 0.02, verdictOK},
		{"lower-is-better, rose past the bound", lowerRel, 10, 12, 0.02, verdictWorse},
		{"lower-is-better, fell", lowerRel, 10, 5, 0.02, verdictOK},
		{"spread wider than the bound hides a small change", rel, 100, 95, 0.30, verdictUnresolved},
		{"spread wider than the bound and than the change", rel, 100, 85, 0.30, verdictUnresolved},
		{"a fall beyond even a wide spread is worse", rel, 100, 50, 0.30, verdictWorse},
		{"absolute bound, inside", abs, 0, 0.0005, 0, verdictOK},
		{"absolute bound, past", abs, 0, 0.002, 0, verdictWorse},
		{"relative bound on a zero baseline", rel, 0, 5, 0, verdictUnresolved},
	} {
		if got, _ := judge(tc.spec, tc.base, tc.cand, tc.spread); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSkipsMetricsAWorkloadDoesNotHave(t *testing.T) {
	set := func(ops, repairRate float64) *resultSet {
		return &resultSet{Runs: []*result{
			{Workload: wlBulkBare, Metrics: map[string]float64{"ops_per_s": ops, "failed_op_frac": 0}},
			{Workload: wlRepairForeground, Metrics: map[string]float64{"ops_per_s": ops, "repair_mb_s": repairRate}},
		}}
	}
	var out bytes.Buffer
	worse, unresolved := compareSets(&out, set(100, 100), set(99, 80))
	if worse != 1 || unresolved != 0 {
		t.Fatalf("worse %d unresolved %d, want 1 and 0:\n%s", worse, unresolved, out.String())
	}
	if n := strings.Count(out.String(), "repair_mb_s"); n != 1 {
		t.Errorf("repair_mb_s has %d rows, want one (repair_foreground only):\n%s", n, out.String())
	}
	if strings.Contains(out.String(), "download_p50_ms") {
		t.Errorf("a metric in neither set has a row:\n%s", out.String())
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(f.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if f.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, f.Workloads[i], w)
		}
	}
	same := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, spec.go %d", kind, len(file), len(code))
			return
		}
		for i, c := range code {
			g := file[i]
			if g.Name != c.Name || g.Unit != c.Unit || g.Better != c.Better || g.Bound != c.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %s %s %s %v, spec.go %s %s %s %v",
					kind, i, g.Name, g.Unit, g.Better, g.Bound, c.Name, c.Unit, c.Better, c.Bound)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEndSpecs)
	same("per_layer", f.PerLayer, perLayerSpecs)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the benchmark's default window %d", f.RunSeconds, defaultSeconds)
	}
}

// TestSmoke runs every workload end to end at a fraction of its size and
// checks that the results carry exactly the metrics BENCHMARK.json names,
// and that nothing failed verification. It asserts no timing.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	p := runParams{
		window: smokeSlowdown * 600 * time.Millisecond, warmup: 50 * time.Millisecond, minSetups: 1,
		warmOps: 4, tracedOps: 40, allocOps: 8, rung: time.Millisecond, shrink: 32,
	}
	extra := specByName(extraSpecs)
	for _, w := range f.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			check := func(r *result, want []metricSpec, optional map[string]metricSpec) {
				t.Helper()
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Errors)
				}
				named := specByName(want)
				for name := range named {
					if _, ok := r.Metrics[name]; !ok {
						t.Errorf("no %s in the result", name)
					}
				}
				for name := range r.Metrics {
					if _, ok := named[name]; ok {
						continue
					}
					if _, ok := optional[name]; !ok {
						t.Errorf("the result carries %s, which BENCHMARK.json does not name", name)
					}
				}
			}
			r, err := runUntraced(w.Name, 1, p)
			if err != nil {
				t.Fatal(err)
			}
			check(r, f.EndToEnd, extra)
			r, err = runTraced(w.Name, 1, p, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check(r, f.PerLayer, nil)
		})
	}
}
