package main

import (
	"runtime"

	"repro/internal/bufpool"
)

// Every counter the benchmark can reach through a public API, flat, so
// that a layer's work over a pass is the difference of two readings.
const (
	cMallocs = iota
	cAllocBytes

	cDepotConnects
	cDepotErrors // Errors + Violations

	cPoolGets
	cPoolMisses
	cPoolPuts
	cPoolOversize

	cHedgesLaunched
	cHedgeWins
	cLimitAcquires
	cLimitWaits
	cSingleflightLeaders
	cSingleflightShared

	cRegDials
	cRegOps
	cRegReplicaFails
	cRegRepairs

	cObsEvents // events the workload's own observer stack was fed

	// The repair daemon's side of repair_foreground; these stay last.
	cRepairSweepNS
	cRepairDrainNS
	cRepairVerbs
	cRepairBytes // LOAD + STORE payload bytes through the daemon
	cRepairScanned
	cRepairPasses
	cRepairPassFailures
	cRepairConflicts
	cRepairReplicasAdded

	nCounters
)

type counterSet [nCounters]int64

// readCounters takes the process-wide readings and adds the workload's.
func (b *bed) readCounters() counterSet {
	var cs counterSet
	if b.counters != nil {
		b.counters(&cs)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cs[cMallocs], cs[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	cs[cDepotConnects], cs[cDepotErrors] = b.fleet.depotCounters()
	p := bufpool.Snapshot()
	cs[cPoolGets], cs[cPoolMisses], cs[cPoolPuts], cs[cPoolOversize] = p.Gets, p.Misses, p.Puts, p.Oversize
	return cs
}

func (a counterSet) sub(b counterSet) counterSet {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counterSet) add(b counterSet) counterSet {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
