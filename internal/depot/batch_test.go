package depot

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestBatchAllocateStoreLoadRoundTrip(t *testing.T) {
	d, c := newDepot(t, Config{})
	payload := bytes.Repeat([]byte("batched "), 512)
	res, err := c.Batch(d.Addr(), []ibp.BatchOp{
		ibp.AllocateOp(1<<20, time.Hour, ibp.Hard),
		ibp.StoreRefOp(0, payload),
		{Verb: ibp.OpLoad, Ref: 0, Offset: 0, Length: int64(len(payload))},
		{Verb: ibp.OpExtend, Ref: 0, Duration: 2 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", i, r.Err)
		}
	}
	if res[1].NewLen != int64(len(payload)) {
		t.Fatalf("store newlen = %d, want %d", res[1].NewLen, len(payload))
	}
	if !bytes.Equal(res[2].Data, payload) {
		t.Fatal("batched load returned wrong bytes")
	}
	if res[3].Expires.IsZero() {
		t.Fatal("batched extend returned no expiry")
	}
	// The minted caps must be real: a plain single-verb load sees the data.
	got, err := c.Load(res[0].Caps.Read, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("single-verb load after batched store mismatch")
	}
	if d.Metrics().Batches.Load() != 1 {
		t.Fatalf("batch counter = %d, want 1", d.Metrics().Batches.Load())
	}
}

func TestBatchPartialFailureContinues(t *testing.T) {
	// A failed ALLOCATE must fail its dependents per-op while later
	// independent ops still run — partial failure is the composable case.
	d, c := newDepot(t, Config{Capacity: 1 << 20})
	payload := []byte("still works")
	res, err := c.Batch(d.Addr(), []ibp.BatchOp{
		ibp.AllocateOp(8<<20, time.Hour, ibp.Hard), // exceeds the per-allocation limit
		ibp.StoreRefOp(0, payload),                 // ref to the failed alloc
		ibp.AllocateOp(1<<10, time.Hour, ibp.Hard), // fits
		ibp.StoreRefOp(2, payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsRemote(res[0].Err, wire.CodeQuotaReached) {
		t.Fatalf("op 0 err = %v, want QUOTA", res[0].Err)
	}
	if !wire.IsRemote(res[1].Err, wire.CodeNotFound) {
		t.Fatalf("op 1 err = %v, want NOT_FOUND for dangling ref", res[1].Err)
	}
	if res[2].Err != nil || res[3].Err != nil {
		t.Fatalf("independent ops failed: %v / %v", res[2].Err, res[3].Err)
	}
	got, err := c.Load(res[2].Caps.Read, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("load after partial-failure batch: %v", err)
	}
}

func TestAllocateStoreOneRoundTrip(t *testing.T) {
	d, c := newDepot(t, Config{})
	payload := []byte("allocate+store fused")
	set, err := c.AllocateStore(d.Addr(), 1<<16, time.Hour, ibp.Hard, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Load(set.Read, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("load after AllocateStore: %v", err)
	}
}

// batchFaultSetup builds a virtual-clock faultnet with one real depot and
// four stored extents, returning everything a mid-batch-kill scenario
// needs. The depot is registered healthy; the caller re-registers it with
// an outage window relative to the post-setup clock.
func batchFaultSetup(t *testing.T) (*faultnet.Model, *vclock.Virtual, *health.Scoreboard, *ibp.Client, string, []ibp.CapSet) {
	t.Helper()
	clock := vclock.NewVirtual(time.Unix(1_000_000, 0))
	// Own model, not the testbed: package testbed imports depot.
	model := faultnet.NewModel(clock, 42)
	model.SetLink("client", "site-a", faultnet.Link{RTT: 10 * time.Millisecond, Mbps: 1})

	d, err := Serve("127.0.0.1:0", Config{
		Secret:   testSecret,
		Capacity: 64 << 20,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	addr := d.Addr()
	model.AddDepot(addr, faultnet.DepotState{Site: "site-a"})

	sb := health.New(health.Config{Seed: 1, FailureThreshold: 100})
	c := ibp.NewClient(
		ibp.WithDialer(model.DialerFrom("client")),
		ibp.WithClock(clock),
		ibp.WithHealth(sb),
	)

	sets := make([]ibp.CapSet, 4)
	data := bytes.Repeat([]byte{0xA5}, 64<<10)
	for i := range sets {
		set, err := c.Allocate(addr, 64<<10, time.Hour, ibp.Hard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Store(set.Write, data); err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return model, clock, sb, c, addr, sets
}

// failureTotal sums the connectivity-failure outcome counters.
func failureTotal(h health.DepotHealth) int64 {
	return h.Timeouts + h.Refusals + h.NetErrors
}

// healthDelta subtracts the setup-phase outcome counters so assertions see
// only what the scenario under test reported.
func healthDelta(after, before health.DepotHealth) health.DepotHealth {
	after.Successes -= before.Successes
	after.Timeouts -= before.Timeouts
	after.Refusals -= before.Refusals
	after.NetErrors -= before.NetErrors
	after.ProtocolErrors -= before.ProtocolErrors
	return after
}

// TestBatchMidKillHealthParity kills the depot mid-batch (a scripted
// faultnet outage opens while LOAD responses are still streaming) and
// checks the scoreboard bookkeeping against the single-verb path run under
// the identical scenario: every sub-op reports exactly one outcome — the
// completed ops as successes, the interrupted and unanswered ops as
// connectivity failures — with nothing double-counted and nothing lost.
func TestBatchMidKillHealthParity(t *testing.T) {
	// Each 64 KiB LOAD response costs ~0.53s simulated at 1 Mbps; an outage
	// opening 1.3s into the exchange lands mid-way through the third LOAD.
	const outageAt = 1300 * time.Millisecond

	runBatch := func() (health.DepotHealth, []ibp.BatchResult) {
		model, clock, sb, c, addr, sets := batchFaultSetup(t)
		base := sb.Snapshot()[0]
		now := clock.Now()
		model.AddDepot(addr, faultnet.DepotState{
			Site:  "site-a",
			Avail: faultnet.Windows{Down: []faultnet.Window{{From: now.Add(outageAt), To: now.Add(time.Hour)}}},
		})
		ops := make([]ibp.BatchOp, 4)
		for i, set := range sets {
			ops[i] = ibp.LoadOp(set.Read, 0, 64<<10)
		}
		res, err := c.Batch(addr, ops)
		if err != nil {
			t.Fatal(err)
		}
		snap := sb.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("want 1 depot in snapshot, got %d", len(snap))
		}
		return healthDelta(snap[0], base), res
	}

	runSingles := func() health.DepotHealth {
		model, clock, sb, c, addr, sets := batchFaultSetup(t)
		base := sb.Snapshot()[0]
		now := clock.Now()
		model.AddDepot(addr, faultnet.DepotState{
			Site:  "site-a",
			Avail: faultnet.Windows{Down: []faultnet.Window{{From: now.Add(outageAt), To: now.Add(time.Hour)}}},
		})
		for _, set := range sets {
			_, _ = c.Load(set.Read, 0, 64<<10)
		}
		snap := sb.Snapshot()
		if len(snap) != 1 {
			t.Fatalf("want 1 depot in snapshot, got %d", len(snap))
		}
		return healthDelta(snap[0], base)
	}

	bh, res := runBatch()
	sh := runSingles()

	// The batch must produce exactly one outcome per sub-op: 4 total.
	if got := bh.Successes + failureTotal(bh) + bh.ProtocolErrors; got != 4 {
		t.Fatalf("batch reported %d outcomes for 4 ops (snapshot %+v)", got, bh)
	}
	if got := sh.Successes + failureTotal(sh) + sh.ProtocolErrors; got != 4 {
		t.Fatalf("single-verb path reported %d outcomes for 4 ops (snapshot %+v)", got, sh)
	}
	// Identical accounting: same successes, same failure count, and the
	// mid-transfer kill is a connectivity failure, never a protocol error
	// (a depot must not look buggy for dying).
	if bh.Successes != sh.Successes {
		t.Fatalf("successes: batch %d, singles %d", bh.Successes, sh.Successes)
	}
	if failureTotal(bh) != failureTotal(sh) {
		t.Fatalf("failures: batch %d, singles %d", failureTotal(bh), failureTotal(sh))
	}
	if bh.ProtocolErrors != 0 || sh.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: batch %d, singles %d, want 0", bh.ProtocolErrors, sh.ProtocolErrors)
	}
	// The outage must actually have landed mid-batch: some ops succeeded,
	// some failed, and the per-op results line up with the counters.
	if bh.Successes == 0 || failureTotal(bh) == 0 {
		t.Fatalf("outage missed the batch window: %d ok / %d failed", bh.Successes, failureTotal(bh))
	}
	var okOps, failedOps int64
	for _, r := range res {
		if r.Err == nil {
			okOps++
		} else {
			failedOps++
		}
	}
	if okOps != bh.Successes || failedOps != failureTotal(bh) {
		t.Fatalf("results (%d ok / %d failed) disagree with scoreboard (%d / %d)",
			okOps, failedOps, bh.Successes, failureTotal(bh))
	}
}
