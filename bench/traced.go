package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// traceBlock is how many operations run untraced, then traced, in turn.
const traceBlock = 25

// runTraced makes the traced run of one workload: one client, a fixed
// operation count so that counts repeat, the same operations once with and
// once without the tracer for the overhead figure, then the ladder. The
// spans go to trace-<workload>.json in dir.
//
// The traced sequence is issued in blocks, each block first untraced and
// then traced from two generators in lockstep, and the workload's mid-run
// fault lands when half the blocks are done: both variants meet the same
// operations and the same faults at the same counts, and slow drift of the
// host hits both alike.
func runTraced(name string, seed int64, p runParams, dir string) (*result, error) {
	res := &result{Workload: name, Seed: seed, Traced: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	b, err := setupBed(name, seed, p.shrink)
	if err != nil {
		return nil, err
	}
	defer b.close()
	res.OpsHash = b.opsHash()
	c := b.clients[0]
	collect := func(phase string) []sample {
		res.count(phase, c.samples)
		return append([]sample(nil), c.samples...)
	}

	log := newTraceLog()
	tr := newTracer(log)
	b.inject(b.startFault)
	sessionStart := b.readCounters()
	stopBackground := b.startBackground(log)
	b.runCount(p.warmOps, nil)
	collect("warm-up")

	plainGen, tracedGen := newOpGen(seed, 100, b.mixOf(0)), newOpGen(seed, 100, b.mixOf(0))
	var delta counterSet
	var plainOps, ops []sample
	blocks := p.tracedOps / traceBlock
	runtime.GC()
	for blk := 0; blk < blocks; blk++ {
		if blk == blocks/2 {
			b.inject(b.midFault)
		}
		c.gen = plainGen
		b.runCount(traceBlock, nil)
		plainOps = append(plainOps, collect("untraced block")...)

		c.gen = tracedGen
		before := b.readCounters()
		b.runCount(traceBlock, tr)
		delta = delta.add(b.readCounters().sub(before))
		ops = append(ops, collect("traced block")...)
	}
	stopBackground()
	// The repair daemon works through traced and untraced blocks alike (it
	// is not what the foreground tracer slows), so its counters are taken
	// over the whole session.
	session := b.readCounters().sub(sessionStart)
	copy(delta[cRepairSweepNS:], session[cRepairSweepNS:])

	spans := log.snapshot()
	m := perLayer(spans, ops, delta)
	for k, v := range m {
		res.Metrics[k] = v
	}
	res.Metrics["trace.overhead_frac"] = 1 - typicalTime(plainOps)/typicalTime(ops)
	res.Samples["traced_ops"] = len(ops)
	res.Samples["spans"] = len(spans)

	var callNS time.Duration
	var dlBytes int64
	var dlNS time.Duration
	for _, o := range ops {
		callNS += o.lat
		if o.kind == opDownload {
			dlBytes += o.bytes
			dlNS += o.lat
		}
	}

	// Downloads alone, untraced, nothing in the background: what one
	// download allocates, client and in-process depots together.
	dlMix := b.mix
	dlMix.downloadFrac = 1
	c.gen = newOpGen(seed, 200, dlMix)
	runtime.GC()
	before := b.readCounters()
	b.runCount(p.allocOps, nil)
	d := b.readCounters().sub(before)
	collect("download-only pass")
	res.Metrics["core.allocs_per_download"] = ratio(d[cMallocs], int64(p.allocOps))
	res.Metrics["core.alloc_kb_per_download"] = ratio(d[cAllocBytes], int64(p.allocOps)) / 1024

	if err := ladder(b, p.rung, res.Metrics); err != nil {
		return nil, err
	}
	res.Metrics["core.download_frac_of_ceiling"] = 0
	if ceil := res.Metrics["ceiling.loopback_mb_s"]; ceil > 0 && dlNS > 0 {
		res.Metrics["core.download_frac_of_ceiling"] = float64(dlBytes) / 1e6 / dlNS.Seconds() / ceil
	}
	recordNS := obsReplay(p.rung, b.observerStack, log.events)
	res.Metrics["obs.record_ns_per_event"] = recordNS
	res.Metrics["obs.cost_frac"] = 0
	if callNS > 0 {
		res.Metrics["obs.cost_frac"] = recordNS * float64(delta[cObsEvents]) / float64(callNS)
	}
	res.Metrics["obsfleet.sweep_ms_per_member"] = 0
	if b.degraded != nil {
		if res.Metrics["obsfleet.sweep_ms_per_member"], err = fleetSweep(b.fleet); err != nil {
			return nil, err
		}
	}
	res.Metrics["repaird.repair_mb_s"], res.Metrics["repaird.cycle_p50_s"] = 0, 0
	if b.repair != nil {
		var done []repairCycle
		for _, c := range b.repair.takeCycles() {
			res.Attempted++
			if c.err != nil {
				res.fail(fmt.Errorf("repair cycle: %w", c.err))
				continue
			}
			done = append(done, c)
		}
		res.Samples["repair_cycle"] = len(done)
		if len(done) > 0 {
			res.Metrics["repaird.cycle_p50_s"], res.Metrics["repaird.repair_mb_s"] = repairSummary(done)
		}
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := log.write(filepath.Join(dir, "trace-"+name+".json")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// typicalTime is what the given operations take when nothing disturbs them:
// for each kind its median duration, weighted by how many there were. The
// traced and the untraced sequence hold the same operations, so the ratio
// of their typical times is the tracer's cost, and an operation that a
// repair cycle or the host delayed does not decide it.
func typicalTime(ops []sample) float64 {
	var byKind [2][]float64
	for _, o := range ops {
		byKind[o.kind] = append(byKind[o.kind], o.dur.Seconds())
	}
	var total float64
	for _, durs := range byKind {
		if len(durs) > 0 {
			total += median(durs) * float64(len(durs))
		}
	}
	return total
}
