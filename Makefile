# Tier-1 verification: build, vet (+staticcheck when installed), full test
# suite, then race-detector runs of the concurrency-heavy packages
# (parallel transfers in core, connection pool + shared health scoreboard
# in ibp, depot metric counters, lbone registry, the obs collector, and
# wire — its Pool and Conn.CheckIdle carry every registry exchange as well
# as pooled IBP, and its Server is the accept loop of the depot, L-Bone and
# NWS daemons). placer-determinism reruns the tests of core's one
# placement loop and one block reader, its sealed and shared-decode
# pooled buffers, core's checked Examples, the registry's quorum pass, and
# the IBP client's one exchange path, often enough to catch an
# order-dependent placement, read, report, output or buffer release.
.PHONY: tier1 build vet staticcheck test race bench-module bench-smoke fuzz-smoke placer-determinism stackmon-smoke slo-smoke registry-smoke repair-smoke obsd-smoke

tier1: build vet staticcheck test race bench-module

build:
	go build ./...

# gofmt is part of vet: any file it would rewrite fails the target.
vet:
	go vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck is optional tooling: run it when the host has it, fall back
# to vet-only otherwise (no network installs during verification).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; \
	fi

# The GF(2^8) kernel packs eight bytes into a little-endian word and the
# checksums hash byte slices: run both packages on a 32-bit target too.
test:
	go test ./...
	GOARCH=386 go test ./internal/erasure ./internal/integrity

race:
	go test -race repro/internal/core repro/internal/ibp repro/internal/health \
		repro/internal/depot repro/internal/lbone repro/internal/obs \
		repro/internal/transfer repro/internal/faultnet repro/internal/stackmon \
		repro/internal/slo repro/internal/registry repro/internal/repaird \
		repro/internal/obsfleet repro/internal/tsdb repro/internal/wire \
		repro/internal/nws repro/internal/daemon

# stackbench (bench/, the benchmark BENCHMARK.json declares) is a nested
# module, so the root's ./... never compiles it: without this an internal/
# API change can break the repo's one benchmark and tier-1 stays green.
bench-module:
	cd bench && go vet ./... && go test ./...

# Runs stackbench exactly as the PR driver does — one short untraced run
# per workload BENCHMARK.json declares — and fails unless each exits 0 and
# its result (the last stdout line) verified every byte with no failed
# operation. bench-module only compiles and unit-tests the benchmark; this
# is the check that the command the driver runs still completes.
bench-smoke:
	@for w in bulk_bare small_named degraded_full repair_foreground; do \
		echo "bench-smoke: $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 0) \
			|| { echo "bench-smoke: $$w: exited nonzero"; exit 1; }; \
		out=$$(printf '%s\n' "$$out" | tail -n 1); \
		case "$$out" in \
			*'"correct":true'*) ;; \
			*) echo "bench-smoke: $$w: result not verified correct: $$out"; exit 1;; \
		esac; \
		case "$$out" in \
			*'"failed":0'[,}]*) ;; \
			*) echo "bench-smoke: $$w: failed operations: $$out"; exit 1;; \
		esac; \
	done
	@echo "bench-smoke: four workloads ran, verified, 0 failed operations"

# `go test` only replays each fuzz target's seed corpus; nothing else ever
# mutates an input. This runs every Fuzz target for 10 s of mutation, one
# `go test -fuzz` per target since it takes one at a time (~1.5 min). The
# exNode pair covers the hand-written XML codec: FuzzUnmarshal's round trip
# and the differential check against the encoding/xml oracle. A failing
# input lands in the package's testdata/fuzz/; commit it as a seed with
# the fix.
FUZZ_TARGETS = wire:FuzzUnquote wire:FuzzReadBlob wire:FuzzReadBlobPooled wire:FuzzReadLine \
	ibp:FuzzParseCap erasure:FuzzMulSlice exnode:FuzzUnmarshal exnode:FuzzCodecAgreesWithEncodingXML
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz-smoke: $$pkg $$name"; \
		go test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s ./internal/$$pkg || exit 1; \
	done

# Every write path places through core's one placer (placeAll), whose
# parallel mode claims depots under a lock; the read side's hedging and
# slow-replica ranking tests race live transfers under wall pacing. Twenty
# runs on one P, where goroutines interleave least, then five under the
# race detector: the write tests must pick disjoint depots and the read
# tests must rank, hedge and demote the same way every time. The registry
# line does the same for the quorum client's pipelined pass: exact exchange,
# dial and repair counts, twenty times on one P. The IBP line does it for
# the one exchange path every verb and batch sub-op takes: outcome parity
# between plain and batched verbs, cancellation, trace stamps, the breaker
# and the depot's wire grammar, twenty times on one P. The same line races
# the depot's lent-segment LOADs against the DELETEs and STOREs that
# recycle their storage, on mem, file and pack depots: a LOAD must send its
# own bytes or fail before its OK. It also checks pooled connections: a
# parked connection's idle check through a wrapper, allocation-free; a
# pooled client across a depot restart; a simulated kill reaching a parked
# connection; third-party COPYs sharing the depot's parked connections.
# The next depot line reads METRICS right
# after a LOAD, two hundred times at the default GOMAXPROCS, where a count landing
# after the reply would show. The Example line checks core's Example*
# functions, whose // Output: must not depend on loopback ports, wall time,
# random IVs or goroutine order, twenty times on one P; `go test -count`
# runs examples only once per process, so the line loops over twenty
# processes. The SLO line reruns the burn and
# budget tests (one Burn over one history, the bucket-boundary window) and
# the twice-run stackmon study, which must produce byte-equal output,
# twenty times on one P.
DETERMINISM_RUN = 'Place|Upload|Coded|Augment|Maintain|Hedge|Rank|Slow|Decode|Verify|WholeReplica|Seal|Shared'
placer-determinism:
	GOMAXPROCS=1 go test -count=20 -run $(DETERMINISM_RUN) repro/internal/core
	for i in $$(seq 20); do GOMAXPROCS=1 go test -count=1 -run '^Example' repro/internal/core || exit 1; done
	go test -race -count=5 -run $(DETERMINISM_RUN) repro/internal/core
	GOMAXPROCS=1 go test -count=20 -run 'Quorum|Session|Repair|Majority|Snapshot|Restart' repro/internal/registry
	GOMAXPROCS=1 go test -count=20 -run 'Batch|Cancel|Trace|Breaker|Reports|Agree|WireCompat|StreamedLoad|Pooled|Idle' \
		repro/internal/ibp repro/internal/depot repro/internal/wire repro/internal/faultnet
	go test -count=200 -run 'TestMetricsCounters$$' repro/internal/depot
	GOMAXPROCS=1 go test -count=20 -run 'TestBurn|TestWindowing|TestRecordSamples|TestSimIsReproducible' \
		repro/internal/slo repro/internal/obsfleet repro/internal/stackmon

# Availability-study smoke: a 24h virtual-clock stackmon simulation over
# faultnet (finishes in seconds of wall time) with two scripted outages,
# written as the paper-style JSON study → STACKMON_study.json. Exercises
# the whole monitor path: probe sweeps, data rounds, availability math.
stackmon-smoke:
	go run ./cmd/stackmon sim -depots 6 -duration 24h -interval 5m \
		-outages 'D02:6h-9h,D05:2h-3h30m,D05:11h-14h' \
		-json STACKMON_study.json
	go run ./cmd/stackmon report -in STACKMON_study.json
	@echo "wrote STACKMON_study.json"

# SLO smoke: the same scripted-outage simulation with burn-rate objectives
# enabled — the outage must surface as alert firings (→ SLO_alerts.json) —
# plus the end-to-end observability test, which rides a striped+replicated
# download through a depot outage and cuts the postmortem bundle into the
# working directory (→ POSTMORTEM_<trace>.json) for CI to archive.
slo-smoke:
	go run ./cmd/stackmon sim -depots 4 -duration 14h -interval 5m \
		-outages 'D02:6h-9h' -slo -slo-out SLO_alerts.json
	POSTMORTEM_DIR=$(CURDIR) go test -count=1 \
		-run TestOutageFiresAlertAndCutsMatchingBundle ./internal/slo/
	@echo "wrote SLO_alerts.json and POSTMORTEM_*.json"

# Repair-fleet smoke: the 48-virtual-hour churn soak — 21 depots failing
# on the paper's §3 availability schedule, 200 files on 8h leases, two
# shard-assigned maintenance daemons refreshing and re-replicating through
# the per-depot repair limiter. Fails if any file's persistent redundancy
# ever drops below its durability target; writes the fleet's activity
# report to repair-smoke/REPAIR_soak.json for CI to archive.
repair-smoke:
	REPAIR_SOAK_DIR=$(CURDIR)/repair-smoke go test -count=1 \
		-run TestRepairFleetChurnSoak ./internal/repaird/
	@echo "wrote repair-smoke/REPAIR_soak.json (churn-soak fleet report)"

# Registry smoke: the quorum acceptance experiment — three registry
# replicas on a scripted fault schedule. A minority kill mid-upload is
# masked by the quorum; a majority kill is detected, fails fast within
# the virtual-time budget, and cuts its postmortem bundle into
# registry-smoke/ (→ POSTMORTEM_*.json) for CI to archive.
registry-smoke:
	REGISTRY_SMOKE_DIR=$(CURDIR)/registry-smoke go test -count=1 \
		-run TestQuorumSurvivesMinorityKillDetectsMajorityKill ./internal/registry/
	@echo "wrote registry-smoke/POSTMORTEM_*.json (registry majority-loss bundle)"

# Fleet-observability smoke: the obsd acceptance experiment — three
# registry replicas, three depots (one on a scripted faultnet outage), a
# client harness, and two maintaind shards all self-register control
# endpoints; obsd discovers them via CLIST and must (a) mirror the
# harness's burn-rate alert in /fleet/slo, (b) join one download's trace
# across >= 3 daemons, (c) expose a histogram exemplar that resolves back
# through /fleet/trace, (d) capture a pprof profile next to the
# postmortem bundle when the alert fires, (e) land the operator report,
# (f) answer /fleet/query with a nonzero error rate over exactly the
# scripted outage window (vclock-pinned) and zero outside it, (g) report
# a /fleet/budget verdict that fails mid-outage — naming the onset as
# the worst burn window — and passes post-recovery, (h) attribute the
# outage tail to the killed depot via /fleet/attribution, and (i) flush
# a FLEET_budget.json that parses back with the live verdicts.
# Artifacts (FLEET_report.json/.md, FLEET_budget.json,
# FLEET_attribution.json, PROFILE_*, POSTMORTEM_*) land in obsd-smoke/.
obsd-smoke:
	OBSD_SMOKE_DIR=$(CURDIR)/obsd-smoke go test -count=1 \
		-run TestObsdFleetSmoke ./internal/obsfleet/
	@echo "wrote obsd-smoke/FLEET_report.json, FLEET_budget.json, FLEET_attribution.json"
