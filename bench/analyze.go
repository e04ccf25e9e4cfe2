package main

import (
	"strings"

	"repro/internal/ibp"
)

// layerTimes is where the time of one kind of core.Tools call went, summed
// over the traced run. Each layer's figure is self time: the call's span
// minus what its children cover, and so on down.
type layerTimes struct {
	ops       int
	callNS    int64 // inside the Tools calls
	coreNS    int64 // call minus the union of its ibp, registry and lbone spans
	ibpBusyNS int64 // union of the call's verb spans
	dirNS     int64 // union of the call's registry and lbone spans
}

// verbSplit divides verb time between client and depot. It covers the verbs
// of sampled operations only: the others carried no trace context, so their
// depots reported nothing. Times are summed, not unioned: hedged verbs
// overlap.
type verbSplit struct {
	verbs, withServer int64
	clientSelfNS      int64 // verb latency minus the depot's total: framing, loopback, client copies
	serverSelfNS      int64 // depot total minus backend and queue wait
	backendNS         int64
	queueNS           int64
	backend           [2]struct{ ns, n int64 } // STORE, LOAD
	// Of sampled download operations: generator call to verified result,
	// the benchmark's own part (the byte comparison), core and directory.
	dlOpNS, dlBenchNS, dlCoreNS, dlDirNS, dlVerbNS int64
}

// perLayer derives the span- and counter-based per-layer metrics of a
// traced run. ops are the traced user operations; delta is the counter
// movement over the same passes.
func perLayer(spans []span, ops []sample, delta counterSet) map[string]float64 {
	m := map[string]float64{}
	byID := make(map[int]*span, len(spans))
	children := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}

	var kinds [2]layerTimes
	var userBytes, wireBytes int64
	var downloads, extents, attempts, failovers, coded int64
	for _, o := range ops {
		kinds[o.kind].ops++
		userBytes += o.bytes
		if o.kind == opDownload {
			downloads++
			extents += int64(o.extents)
			attempts += int64(o.attempts)
			failovers += int64(o.failovers)
			coded += int64(o.coded)
		}
	}
	nOps := int64(len(ops))

	// Verb-level tallies cover the verbs of Tools calls only: retiring a
	// replaced file's allocations is the benchmark's housekeeping.
	var verbs, dials, batched int64
	outcomes := map[string]int64{}
	var split verbSplit
	// Directory and discovery calls are priced wherever they were made:
	// the repair daemon lists and republishes outside any user operation.
	reg := map[string]*struct{ ns, n int64 }{"put": {}, "get": {}, "list": {}, "query": {}}
	for i := range spans {
		c := &spans[i]
		if c.Layer == layerRegistry || c.Layer == layerLBone {
			reg[c.Name].ns += c.End - c.Start
			reg[c.Name].n++
		}
		if c.Layer == layerOp && c.Sampled && c.Name == opDownload.String() {
			split.dlOpNS += c.End - c.Start
			for _, ch := range children[c.ID] {
				if ch.Layer == layerBench {
					split.dlBenchNS += ch.End - ch.Start
				}
			}
		}
		if c.Layer != layerCore {
			continue
		}
		op := byID[c.Op]
		if op == nil {
			continue
		}
		download := op.Name == opDownload.String()
		k := &kinds[opUpload]
		if download {
			k = &kinds[opDownload]
		}
		var ibpIvs, dirIvs []interval
		var verbNS int64
		for _, ch := range children[c.ID] {
			switch ch.Layer {
			case layerIBP:
				ibpIvs = append(ibpIvs, ch.iv())
				verbs++
				outcomes[ch.Outcome]++
				wireBytes += ch.Bytes
				if ch.Dialed {
					dials++
				}
				if ch.Batched {
					batched++
				}
				lat := ch.End - ch.Start
				verbNS += lat
				if !op.Sampled {
					continue
				}
				split.verbs++
				if !ch.HasServer {
					split.clientSelfNS += lat
					continue
				}
				split.withServer++
				split.clientSelfNS += lat - ch.TotalNS
				split.serverSelfNS += ch.TotalNS - ch.BackendNS - ch.QueueNS
				split.backendNS += ch.BackendNS
				split.queueNS += ch.QueueNS
				switch ch.Name {
				case ibp.OpStore:
					split.backend[0].ns += ch.BackendNS
					split.backend[0].n++
				case ibp.OpLoad:
					split.backend[1].ns += ch.BackendNS
					split.backend[1].n++
				}
			case layerRegistry, layerLBone:
				dirIvs = append(dirIvs, ch.iv())
			}
		}
		dir := unionLen(c.iv(), dirIvs)
		self := selfTime(c.iv(), append(ibpIvs, dirIvs...))
		k.callNS += c.End - c.Start
		k.ibpBusyNS += unionLen(c.iv(), ibpIvs)
		k.dirNS += dir
		k.coreNS += self
		if op.Sampled && download {
			split.dlCoreNS += self
			split.dlDirNS += dir
			split.dlVerbNS += verbNS
		}
	}
	dl, ul := kinds[opDownload], kinds[opUpload]
	callNS := dl.callNS + ul.callNS

	us := func(ns, n int64) float64 { return ratio(ns, n) / 1e3 }
	m["ibp.verbs_per_user_op"] = ratio(verbs, nOps)
	m["ibp.dials_per_user_op"] = ratio(dials, nOps)
	m["ibp.batched_frac"] = ratio(batched, verbs)
	m["ibp.client_self_us_per_verb"] = us(split.clientSelfNS, split.verbs)
	m["ibp.busy_frac"] = ratio(dl.ibpBusyNS+ul.ibpBusyNS, callNS)
	m["ibp.wire_bytes_per_user_byte"] = ratio(wireBytes, userBytes)
	m["ibp.failed_verb_frac"] = 1 - ratio(outcomes["success"], verbs)
	if verbs == 0 {
		m["ibp.failed_verb_frac"] = 0
	}
	for _, o := range []string{"refused", "timeout", "net-error", "protocol-error", "cancelled"} {
		m["ibp.verb_frac_"+strings.ReplaceAll(o, "-", "_")] = ratio(outcomes[o], verbs)
	}
	m["health.circuit_open_verb_frac"] = ratio(outcomes["circuit-open"], verbs)

	m["depot.server_self_us_per_verb"] = us(split.serverSelfNS, split.withServer)
	m["depot.queue_wait_us_per_verb"] = us(split.queueNS, split.withServer)
	m["depot.backend_us_per_store"] = us(split.backend[0].ns, split.backend[0].n)
	m["depot.backend_us_per_load"] = us(split.backend[1].ns, split.backend[1].n)
	m["depot.connects_per_user_op"] = ratio(delta[cDepotConnects], nOps)
	m["depot.errors_per_user_op"] = ratio(delta[cDepotErrors], nOps)

	m["core.self_us_per_download"] = us(dl.coreNS, int64(dl.ops))
	m["core.self_us_per_upload"] = us(ul.coreNS, int64(ul.ops))
	m["core.self_frac_download"] = ratio(dl.coreNS, dl.callNS)
	m["core.self_frac_upload"] = ratio(ul.coreNS, ul.callNS)
	m["core.attempts_per_extent"] = ratio(attempts, extents)
	m["core.failovers_per_download"] = ratio(failovers, downloads)
	m["core.coded_extent_frac"] = ratio(coded, extents)

	// The part of a download operation that its layers' self times (the
	// benchmark's own verification included) do not add up to. Verb times
	// are summed, so where hedged verbs overlap the sum exceeds the
	// operation and the residual is negative.
	m["trace.residual_frac"] = 0
	if split.dlOpNS > 0 {
		m["trace.residual_frac"] = 1 - float64(split.dlBenchNS+split.dlCoreNS+split.dlDirNS+split.dlVerbNS)/float64(split.dlOpNS)
	}

	m["bufpool.miss_frac"] = ratio(delta[cPoolMisses], delta[cPoolGets])
	m["bufpool.oversize_per_op"] = ratio(delta[cPoolOversize], nOps)
	m["bufpool.unreturned_per_op"] = ratio(delta[cPoolGets]-delta[cPoolPuts], nOps)

	m["transfer.hedges_per_download"] = ratio(delta[cHedgesLaunched], downloads)
	m["transfer.hedge_win_frac"] = ratio(delta[cHedgeWins], delta[cHedgesLaunched])
	m["transfer.limit_wait_frac"] = ratio(delta[cLimitWaits], delta[cLimitAcquires])
	m["transfer.singleflight_shared_frac"] = ratio(delta[cSingleflightShared], delta[cSingleflightLeaders]+delta[cSingleflightShared])

	m["obs.events_per_user_op"] = ratio(delta[cObsEvents], nOps)

	m["registry.put_us"] = us(reg["put"].ns, reg["put"].n)
	m["registry.get_us"] = us(reg["get"].ns, reg["get"].n)
	m["registry.list_us"] = us(reg["list"].ns, reg["list"].n)
	m["registry.share_of_op"] = ratio(dl.dirNS+ul.dirNS, callNS)
	m["registry.dials_per_op"] = ratio(delta[cRegDials], nOps)
	m["registry.replica_fail_frac"] = ratio(delta[cRegReplicaFails], 3*delta[cRegOps])
	m["registry.read_repairs_per_op"] = ratio(delta[cRegRepairs], delta[cRegOps])
	m["lbone.query_us"] = us(reg["query"].ns, reg["query"].n)

	m["repaird.sweep_ms_per_file"] = ratio(delta[cRepairSweepNS], delta[cRepairScanned]) / 1e6
	m["repaird.drain_ms_per_pass"] = ratio(delta[cRepairDrainNS], delta[cRepairPasses]) / 1e6
	m["repaird.bytes_through_daemon_per_repaired_byte"] = ratio(delta[cRepairBytes], delta[cRepairReplicasAdded]*repairFileSize)
	m["repaird.verbs_per_pass"] = ratio(delta[cRepairVerbs], delta[cRepairPasses])
	m["repaird.conflict_frac"] = ratio(delta[cRepairConflicts], delta[cRepairPasses])
	m["repaird.pass_failure_frac"] = ratio(delta[cRepairPassFailures], delta[cRepairPasses])
	return m
}
