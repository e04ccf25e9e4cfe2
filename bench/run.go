package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The window is cut into slices and each metric is the median of its
// per-slice values, so a burst of interference from outside the sandbox
// costs one slice, not the run. The count is even so that degraded_full's
// mid-window fault falls on a boundary.
const windowSlices = 6

// runParams sizes a run. Only the window length is the user's to choose;
// the rest is fixed by defaultParams and shrunk by the package's tests.
type runParams struct {
	window time.Duration
	warmup time.Duration
	// Set-up is repeated per untraced run and the median reported: one
	// set-up is a fraction of a second to a few seconds and jitters with
	// whatever else the host is doing. At least minSetups are made, and
	// more, up to maxSetups, while they have taken less than setupBudget
	// together: the cheap ones jitter most.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// The traced run's fixed operation counts: warm-up, the traced
	// sequence itself, and the download-only allocation pass.
	warmOps, tracedOps, allocOps int
	// rung is how long each ladder rung is timed for.
	rung time.Duration
	// shrink divides small_named's live-name count (tests only).
	shrink int
}

func defaultParams(window time.Duration) runParams {
	return runParams{
		window: window, warmup: 2 * time.Second,
		minSetups: 3, maxSetups: 15, setupBudget: 2500 * time.Millisecond,
		warmOps: 50, tracedOps: tracedOps, allocOps: 100,
		rung: 120 * time.Millisecond, shrink: 1,
	}
}

// result is what one run of one workload produces.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // the first few
	Metrics   map[string]float64 `json:"metrics"`
	// Spread is the run's own estimate of how far a repeat of it would
	// move a metric, as a share of the metric: see medianSpread.
	Spread map[string]float64 `json:"spread,omitempty"`
	// Samples counts what stands behind a timing metric.
	Samples map[string]int `json:"samples,omitempty"`
	// OpsHash pins the generated operation sequence.
	OpsHash string `json:"ops_hash"`
}

// count adds a phase's finished operations to the attempted and failed
// totals.
func (r *result) count(phase string, samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.err != nil {
			r.fail(fmt.Errorf("%s: %w", phase, s.err))
		}
	}
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runUntraced measures the end-to-end metrics of one workload: repeated
// set-up, warm-up, then a window of the given length with every client
// running and no tracing anywhere.
func runUntraced(name string, seed int64, p runParams) (*result, error) {
	res := &result{Workload: name, Seed: seed, Metrics: map[string]float64{}, Spread: map[string]float64{}, Samples: map[string]int{}}
	var setups []float64
	var spent time.Duration
	var b *bed
	for i := 0; i < p.minSetups || (i < p.maxSetups && spent < p.setupBudget); i++ {
		if b != nil {
			b.close()
		}
		// Every set-up starts as a process's first does, on a heap with
		// nothing to reuse: a set-up that inherits the previous one's
		// freed memory takes anything from half to all of the time.
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if b, err = setupBed(name, seed, p.shrink); err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	res.Metrics["setup_s"] = median(setups)
	res.Spread["setup_s"] = medianSpread(setups)
	res.OpsHash = b.opsHash()

	b.inject(b.startFault)
	stopBackground := b.startBackground(nil)
	b.runUntil(time.Now().Add(p.warmup))
	for _, c := range b.clients {
		res.count("warm-up", c.samples)
	}
	if b.repair != nil {
		b.repair.takeCycles()
	}
	runtime.GC()

	start := time.Now()
	marks := make([]runtime.MemStats, windowSlices+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.runUntil(start.Add(p.window))
	}()
	bounds := make([]time.Time, windowSlices+1)
	for i := range marks {
		bounds[i] = start.Add(p.window * time.Duration(i) / windowSlices)
		time.Sleep(time.Until(bounds[i]))
		runtime.ReadMemStats(&marks[i])
		if i == windowSlices/2 {
			b.inject(b.midFault)
		}
	}
	<-done
	stopBackground()

	var samples []sample
	for _, c := range b.clients {
		samples = append(samples, c.samples...)
	}
	res.count("window", samples)
	var cycles []repairCycle
	if b.repair != nil {
		cycles = b.repair.takeCycles()
	}
	endToEnd(res, samples, cycles, bounds, marks)
	res.Metrics["stored_bytes_per_user_byte"] = float64(b.fleet.usedBytes()) / float64(b.liveUserBytes())
	res.Metrics["failed_op_frac"] = ratio(int64(res.Failed), int64(res.Attempted))
	return res, nil
}

// sliceMinSuffix names, in result.Samples, the sample count of a timing's
// thinnest window slice.
const sliceMinSuffix = "_slice_min"

// endToEnd fills the throughput, latency, allocation and repair metrics
// from what the window completed: per slice first, then the median over
// slices.
func endToEnd(res *result, samples []sample, cycles []repairCycle, bounds []time.Time, marks []runtime.MemStats) {
	per := map[string][]float64{}
	put := func(name string, v float64) { per[name] = append(per[name], v) }
	within := func(i int, t time.Time) bool { return !t.Before(bounds[i]) && t.Before(bounds[i+1]) }
	for i := 0; i+1 < len(bounds); i++ {
		var ops int
		var lat [2][]float64
		var bytes, busy [2]float64
		for _, s := range samples {
			if s.err != nil || !within(i, s.end) {
				continue
			}
			ops++
			lat[s.kind] = append(lat[s.kind], s.lat.Seconds()*1e3)
			bytes[s.kind] += float64(s.bytes)
			busy[s.kind] += s.lat.Seconds()
		}
		if ops > 0 {
			put("ops_per_s", float64(ops)/bounds[i+1].Sub(bounds[i]).Seconds())
			put("alloc_kb_per_op", float64(marks[i+1].TotalAlloc-marks[i].TotalAlloc)/1024/float64(ops))
			put("allocs_per_op", float64(marks[i+1].Mallocs-marks[i].Mallocs)/float64(ops))
		}
		for k, prefix := range [2]string{opDownload: "download", opUpload: "upload"} {
			if len(lat[k]) == 0 {
				continue
			}
			// Percentiles are taken per slice, so it is the thinnest
			// slice that says which of them the run supports.
			if n, ok := res.Samples[prefix+sliceMinSuffix]; !ok || len(lat[k]) < n {
				res.Samples[prefix+sliceMinSuffix] = len(lat[k])
			}
			sort.Float64s(lat[k])
			put(prefix+"_mb_s", bytes[k]/1e6/busy[k])
			put(prefix+"_p50_ms", percentile(lat[k], 50))
			put(prefix+"_p90_ms", percentile(lat[k], 90))
		}
		var done []repairCycle
		for _, c := range cycles {
			if c.err == nil && within(i, c.end) {
				done = append(done, c)
			}
		}
		if len(done) > 0 {
			p50, mbs := repairSummary(done)
			put("repair_cycle_p50_s", p50)
			put("repair_mb_s", mbs)
		}
	}
	for name, v := range per {
		res.Metrics[name] = median(v)
		res.Spread[name] = medianSpread(v)
	}
	for _, s := range samples {
		if s.err == nil {
			res.Samples[s.kind.String()]++
		}
	}
	for _, c := range cycles {
		res.Attempted++
		if c.err != nil {
			res.fail(fmt.Errorf("repair cycle: %w", c.err))
			continue
		}
		res.Samples["repair_cycle"]++
	}
}

// repairSummary is the median length of the given repair cycles and the
// rate at which they re-replicated bytes while inside Sweep and Drain.
func repairSummary(cycles []repairCycle) (cycleP50S, mbPerS float64) {
	var lens []float64
	var moved int64
	var busy time.Duration
	for _, c := range cycles {
		lens = append(lens, c.end.Sub(c.start).Seconds())
		moved += c.bytes
		busy += c.busy
	}
	return median(lens), float64(moved) / 1e6 / busy.Seconds()
}
