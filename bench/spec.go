package main

// The benchmark's vocabulary: workload names, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root repeats these tables for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two in step. Later issues cite one metric and one workload from
// here by name.

const (
	wlBulkBare         = "bulk_bare"
	wlSmallNamed       = "small_named"
	wlDegradedFull     = "degraded_full"
	wlRepairForeground = "repair_foreground"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Each why names the layers the workload is there for and, after the last
// semicolon or in brackets, where it is narrower than the issue that
// defined it; README.md gives the reasons.
var workloadSpecs = []workloadSpec{
	{wlBulkBare, "8 mem depots, 4 MiB striped files, pooled client, nothing else: wire, depot, bufpool and core striping do the work"},
	{wlSmallNamed, "4 pack depots, 1-16 KiB named objects via a 3-replica quorum: framing, dials, journal, XML and quorum round trips dominate; a name's size goes by its index, not the seed; dials close by RST"},
	{wlDegradedFull, "8 depots on mem, not file (ext4 swings uploads 40 %): sealed replicas + RS 3+2, two die, the nearest is slow; failover, hedging, decode, observers on; a file's layout goes by its slot, not the seed"},
	{wlRepairForeground, "6 mem depots wiped in turn while repaird restores 64 replicated files (none coded: repair un-codes RS files); one client reads by name throughout, one also rewrites, between repairs; RST closes"},
}

type metricSpec struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	meaning string
	// absolute makes Bound a difference, not a share of the baseline.
	absolute bool
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEndSpecs are measured with tracing off, on every workload. Bound is
// the share of the parent's median by which the metric may worsen; the
// driver takes one per metric for all four workloads and allows 0.25 at
// most.
//
// Rates and latencies get all of it, and that is the host's doing, not
// the metrics'. In a quiet hour their quartile spread over ten seeds is
// 2-6 % on every workload (upload_p90_ms 8 % on bulk_bare), and the
// issue's 8-12 % would hold. But the sandbox's memory throughput moves
// under the benchmark for tens of minutes at a time: bulk_bare, which
// does little but copy bytes, ran at 630 ops/s through forty runs and at
// 500-550 through most of the next twenty, same binary, same seeds
// (download_p50_ms 2.0 -> 2.4 ms), the other workloads 7-18 % slower
// with it. A bound inside that swing rejects an innocent change whenever
// the swing falls between its parent's runs and its own. README.md has the numbers; a change that
// claims a gain smaller than the swing needs alternated pairs.
//
// The counted metrics do not feel the host. allocs_per_op (0-2 %) and
// stored_bytes_per_user_byte (exact) keep the issue's bounds;
// alloc_kb_per_op moves 3 % on bulk_bare, where the collector's timing
// decides how many pooled buffers survive, and gets 8 %.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, meaning: "fleet start + preload until the first operation could run (median of three to fifteen set-ups)"},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25, meaning: "user operations completed and verified per wall second"},
	{Name: "download_mb_s", Unit: "MB/s", Better: higher, Bound: 0.25, meaning: "verified download payload bytes / client-seconds inside download calls"},
	{Name: "download_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, meaning: "median time inside the download call"},
	{Name: "download_p90_ms", Unit: "ms", Better: lower, Bound: 0.25, meaning: "p90 of the same; on degraded_full the hedged / failed-over tail"},
	{Name: "upload_mb_s", Unit: "MB/s", Better: higher, Bound: 0.25, meaning: "upload payload bytes / client-seconds inside upload (+ publish) calls"},
	{Name: "upload_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, meaning: "median time inside the upload (+ publish) calls"},
	{Name: "upload_p90_ms", Unit: "ms", Better: lower, Bound: 0.25, meaning: "p90 of the same"},
	{Name: "stored_bytes_per_user_byte", Unit: "ratio", Better: lower, Bound: 0.005, meaning: "sum of Depot.UsedBytes() / live user bytes at window end"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.08, meaning: "process TotalAlloc delta / ops (client + in-process fleet)"},
	{Name: "allocs_per_op", Unit: "count", Better: lower, Bound: 0.05, meaning: "process Mallocs delta / ops"},
}

// extraSpecs are end-to-end metrics the driver's schema has no place for:
// it wants every end-to-end metric on every workload and never zero.
// failed_op_frac is 0 by design (the driver reads the same from attempted
// and failed) and the repair pair exists on one workload only. They are in
// every result set and -compare holds them to these bounds; the traced run
// repeats the repair pair as repaird.* per-layer metrics.
var extraSpecs = []metricSpec{
	{Name: "failed_op_frac", Unit: "ratio", Better: lower, Bound: 0.001, absolute: true, meaning: "operations that errored, returned wrong bytes or took over 10 s / operations attempted"},
	{Name: "repair_mb_s", Unit: "MB/s", Better: higher, Bound: 0.10, meaning: "bytes re-replicated / seconds inside Sweep+Drain (repair_foreground only)"},
	{Name: "repair_cycle_p50_s", Unit: "s", Better: lower, Bound: 0.10, meaning: "depot loss until every file is back at target (repair_foreground only)"},
}

// perLayerSpecs come from the traced run. The driver wants every one of
// them on every workload, so a layer a workload does not touch reads 0.
var perLayerSpecs = []metricSpec{
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower, meaning: "1 - untraced / traced typical operation time (per kind, median x count) over the same 400 operations"},
	{Name: "trace.residual_frac", Unit: "ratio", Better: lower, meaning: "share of a download operation its layers' self times do not add up to (negative where hedged verbs overlap)"},
	{Name: "ceiling.loopback_mb_s", Unit: "MB/s", Better: higher, meaning: "raw net.Conn copy, 2 conns, 1 MiB writes, median of five rounds (about a second in all)"},
	{Name: "core.download_frac_of_ceiling", Unit: "ratio", Better: higher, meaning: "traced-run download MB/s / ceiling"},
	{Name: "wire.blob_mb_s", Unit: "MB/s", Better: higher, meaning: "WriteBlob/ReadBlobInto over net.Pipe at fragment size"},
	{Name: "wire.frame_ns_per_op", Unit: "ns", Better: lower, meaning: "WriteLine + ReadStatus round trip over net.Pipe"},
	{Name: "wire.allocs_per_frame", Unit: "count", Better: lower, meaning: "Mallocs delta over the same loop"},
	{Name: "ibp.verbs_per_user_op", Unit: "count", Better: lower, meaning: "observer events inside user ops / user ops"},
	{Name: "ibp.dials_per_user_op", Unit: "count", Better: lower, meaning: "events with !Reused / user ops"},
	{Name: "ibp.batched_frac", Unit: "ratio", Better: higher, meaning: "events with Batched / events"},
	{Name: "ibp.client_self_us_per_verb", Unit: "us", Better: lower, meaning: "event latency - Server.Total (client framing + loopback transfer)"},
	{Name: "ibp.busy_frac", Unit: "ratio", Better: lower, meaning: "union of verb spans / Tools call time"},
	{Name: "ibp.wire_bytes_per_user_byte", Unit: "ratio", Better: lower, meaning: "sum of event Bytes / user bytes"},
	{Name: "ibp.failed_verb_frac", Unit: "ratio", Better: lower, meaning: "events !OK / events"},
	{Name: "ibp.verb_frac_refused", Unit: "ratio", Better: lower, meaning: "events with outcome refused / events"},
	{Name: "ibp.verb_frac_timeout", Unit: "ratio", Better: lower, meaning: "outcome timeout"},
	{Name: "ibp.verb_frac_net_error", Unit: "ratio", Better: lower, meaning: "outcome net-error"},
	{Name: "ibp.verb_frac_protocol_error", Unit: "ratio", Better: lower, meaning: "outcome protocol-error"},
	{Name: "ibp.verb_frac_cancelled", Unit: "ratio", Better: lower, meaning: "outcome cancelled (hedge losers)"},
	{Name: "depot.server_self_us_per_verb", Unit: "us", Better: lower, meaning: "Server.Total - Backend"},
	{Name: "depot.queue_wait_us_per_verb", Unit: "us", Better: lower, meaning: "Server.Queue mean"},
	{Name: "depot.backend_us_per_store", Unit: "us", Better: lower, meaning: "Server.Backend mean over STORE"},
	{Name: "depot.backend_us_per_load", Unit: "us", Better: lower, meaning: "Server.Backend mean over LOAD"},
	{Name: "depot.backend_mem_store_mb_s", Unit: "MB/s", Better: higher, meaning: "direct Backend.Create + Handle.Append of one fragment of the workload's size, mem backend"},
	{Name: "depot.backend_mem_load_mb_s", Unit: "MB/s", Better: higher, meaning: "direct Handle.ReadAt of the same"},
	{Name: "depot.backend_pack_store_mb_s", Unit: "MB/s", Better: higher, meaning: "the same, pack backend in a temp dir"},
	{Name: "depot.backend_pack_load_mb_s", Unit: "MB/s", Better: higher, meaning: "the same, pack backend"},
	{Name: "depot.backend_file_store_mb_s", Unit: "MB/s", Better: higher, meaning: "the same, file backend in a temp dir (no workload runs on it, see degraded_full)"},
	{Name: "depot.backend_file_load_mb_s", Unit: "MB/s", Better: higher, meaning: "the same, file backend"},
	{Name: "depot.connects_per_user_op", Unit: "count", Better: lower, meaning: "Connects delta / ops"},
	{Name: "depot.errors_per_user_op", Unit: "count", Better: lower, meaning: "Errors + Violations delta / ops"},
	{Name: "core.self_us_per_download", Unit: "us", Better: lower, meaning: "download call - union(ibp, directory, discovery spans)"},
	{Name: "core.self_us_per_upload", Unit: "us", Better: lower, meaning: "same for upload calls"},
	{Name: "core.self_frac_download", Unit: "ratio", Better: lower, meaning: "core self time / download call time"},
	{Name: "core.self_frac_upload", Unit: "ratio", Better: lower, meaning: "core self time / upload call time"},
	{Name: "core.attempts_per_extent", Unit: "count", Better: lower, meaning: "Report trail length / extents"},
	{Name: "core.failovers_per_download", Unit: "count", Better: lower, meaning: "Report.Failovers mean"},
	{Name: "core.coded_extent_frac", Unit: "ratio", Better: lower, meaning: "extents served by decode / extents"},
	{Name: "core.allocs_per_download", Unit: "count", Better: lower, meaning: "Mallocs delta, one client, downloads only"},
	{Name: "core.alloc_kb_per_download", Unit: "KiB", Better: lower, meaning: "TotalAlloc delta of the same"},
	{Name: "erasure.encode_mb_s", Unit: "MB/s", Better: higher, meaning: "RS 3+2 Encode at the workload's file size"},
	{Name: "erasure.decode_mb_s", Unit: "MB/s", Better: higher, meaning: "RS 3+2 Decode with 2 erasures"},
	{Name: "integrity.sum_mb_s", Unit: "MB/s", Better: higher, meaning: "integrity.Sum at fragment size"},
	{Name: "sealing.seal_mb_s", Unit: "MB/s", Better: higher, meaning: "Seal at file size"},
	{Name: "sealing.unseal_mb_s", Unit: "MB/s", Better: higher, meaning: "UnsealAt at file size"},
	{Name: "exnode.marshal_us", Unit: "us", Better: lower, meaning: "Marshal on the workload's own exNodes"},
	{Name: "exnode.unmarshal_us", Unit: "us", Better: lower, meaning: "Unmarshal on the same"},
	{Name: "bufpool.miss_frac", Unit: "ratio", Better: lower, meaning: "Misses / Gets"},
	{Name: "bufpool.oversize_per_op", Unit: "count", Better: lower, meaning: "Oversize / ops"},
	{Name: "bufpool.unreturned_per_op", Unit: "count", Better: lower, meaning: "(Gets - Puts) / ops"},
	{Name: "health.report_ns", Unit: "ns", Better: lower, meaning: "direct Scoreboard.Report"},
	{Name: "health.circuit_open_verb_frac", Unit: "ratio", Better: lower, meaning: "events with outcome circuit-open / events"},
	{Name: "transfer.hedges_per_download", Unit: "count", Better: lower, meaning: "HedgesLaunched / downloads"},
	{Name: "transfer.hedge_win_frac", Unit: "ratio", Better: higher, meaning: "HedgeWins / HedgesLaunched"},
	{Name: "transfer.limit_wait_frac", Unit: "ratio", Better: lower, meaning: "LimitWaits / LimitAcquires"},
	{Name: "transfer.singleflight_shared_frac", Unit: "ratio", Better: higher, meaning: "Shared / (Leaders + Shared)"},
	{Name: "obs.record_ns_per_event", Unit: "ns", Better: lower, meaning: "captured events replayed into the workload's observer stack"},
	{Name: "obs.events_per_user_op", Unit: "count", Better: lower, meaning: "events the workload's observers saw / ops"},
	{Name: "obs.cost_frac", Unit: "ratio", Better: lower, meaning: "record ns x events / Tools call time"},
	{Name: "registry.put_us", Unit: "us", Better: lower, meaning: "directory decorator span mean"},
	{Name: "registry.get_us", Unit: "us", Better: lower, meaning: "same"},
	{Name: "registry.list_us", Unit: "us", Better: lower, meaning: "same"},
	{Name: "registry.share_of_op", Unit: "ratio", Better: lower, meaning: "union of directory spans / Tools call time"},
	{Name: "registry.dials_per_op", Unit: "count", Better: lower, meaning: "quorum-client dials / user ops"},
	{Name: "registry.replica_fail_frac", Unit: "ratio", Better: lower, meaning: "ReplicaFails / (3 x Ops)"},
	{Name: "registry.read_repairs_per_op", Unit: "count", Better: lower, meaning: "Repairs / Ops"},
	{Name: "lbone.query_us", Unit: "us", Better: lower, meaning: "DepotSource decorator span mean"},
	{Name: "repaird.sweep_ms_per_file", Unit: "ms", Better: lower, meaning: "time in Sweep() / Scanned"},
	{Name: "repaird.drain_ms_per_pass", Unit: "ms", Better: lower, meaning: "time in Drain() / Passes"},
	{Name: "repaird.bytes_through_daemon_per_repaired_byte", Unit: "ratio", Better: lower, meaning: "daemon LOAD+STORE bytes / re-replicated bytes"},
	{Name: "repaird.verbs_per_pass", Unit: "count", Better: lower, meaning: "daemon observer events / Passes"},
	{Name: "repaird.conflict_frac", Unit: "ratio", Better: lower, meaning: "Conflicts / Passes"},
	{Name: "repaird.pass_failure_frac", Unit: "ratio", Better: lower, meaning: "PassFailures / Passes"},
	{Name: "repaird.repair_mb_s", Unit: "MB/s", Better: higher, meaning: "bytes re-replicated / seconds inside Sweep+Drain"},
	{Name: "repaird.cycle_p50_s", Unit: "s", Better: lower, meaning: "depot loss until every file is back at target"},
	{Name: "obsfleet.sweep_ms_per_member", Unit: "ms", Better: lower, meaning: "Aggregator.Sweep() over the fleet's ObsMux endpoints / members"},
}

func specByName(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}
