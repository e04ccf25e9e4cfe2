package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/transfer"
)

// hedgeEnv builds the slow-depot scenario: the statically-preferred near
// depot is alive but crawling (a delayed depot, not a dead one — the
// failure mode failover alone cannot fix), while a farther replica is fast.
// withHealth wires one scoreboard into the client and tl.Health
// (healthTools), so the warm-up upload leaves both depots' latencies on it.
func hedgeEnv(t *testing.T, withHealth bool) (*env, *Tools, []byte, *exnode.ExNode) {
	t.Helper()
	e := newEnv(t)
	// Hedging races two live transfers; pace wall time against virtual time
	// so the race resolves by simulated speed, not syscall latency.
	e.Model.SetWallPacing(faultnet.DefaultWallPacing)
	e.addDepot("near-slow", geo.UNC, nil)
	e.addDepot("far-fast", geo.UCSD, nil)
	// Harvard→UNC: short hop, starved bandwidth. Harvard→UCSD: fast.
	e.Model.SetLink(geo.Harvard.Name, geo.UNC.Name, faultnet.Link{RTT: 10 * time.Millisecond, Mbps: 0.1})
	e.Model.SetLink(geo.Harvard.Name, geo.UCSD.Name, faultnet.Link{RTT: 10 * time.Millisecond, Mbps: 100})
	tl := e.tools(geo.Harvard, false)
	if withHealth {
		tl = e.healthTools(geo.Harvard, health.New(health.Config{Clock: e.Clock, Seed: 1}))
	}
	data := payload(200 << 10)
	x, err := tl.Upload("hedge.dat", data, UploadOptions{
		Replicas: 2, Fragments: 4, Depots: e.infosFor("near-slow", "far-fast"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The upload above crossed the slow link; reset the virtual clock
	// bookkeeping by measuring downloads from here.
	return e, tl, data, x
}

// TestHedgedDownloadBeatsSlowDepot: static ranking prefers the slow near
// depot, so an unhedged download pays its starved bandwidth for every
// extent. With hedging, the backup fires against the fast replica after the
// threshold and wins, bounding each extent near the fast depot's latency.
func TestHedgedDownloadBeatsSlowDepot(t *testing.T) {
	e, tl, data, _ := hedgeEnv(t, false)
	x, err := tl.Upload("hedge2.dat", data, UploadOptions{
		Replicas: 2, Fragments: 4, Depots: e.infosFor("near-slow", "far-fast"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: no engine, plain sequential failover.
	_, slowRep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}

	// Hedged: backup launches 150ms (virtual) into a slow attempt.
	tl.Transfer = transfer.New(transfer.Config{
		Hedge:      true,
		HedgeAfter: 150 * time.Millisecond,
		Clock:      e.Clock,
	})
	got, fastRep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged download corrupted")
	}
	c := tl.Transfer.Counters()
	if c.HedgesLaunched == 0 || c.HedgeWins == 0 {
		t.Fatalf("no hedges fired against the slow depot: %+v", c)
	}
	if c.HedgesCancelled == 0 {
		t.Fatalf("the slow loser was never cancelled: %+v", c)
	}
	// Each extent is ~50 KiB: ~4s virtual through the 0.1 Mbps depot,
	// ~150ms+ε hedged. Require at least a 2x improvement end to end.
	if fastRep.Duration*2 > slowRep.Duration {
		t.Fatalf("hedged %v vs unhedged %v: want >= 2x improvement", fastRep.Duration, slowRep.Duration)
	}
	// The winning attempts are marked hedged in the trail.
	sawHedged := false
	for _, er := range fastRep.Extents {
		for _, a := range er.Trail {
			if a.Hedged && a.OK() {
				sawHedged = true
			}
		}
	}
	if !sawHedged {
		t.Fatal("no successful hedged attempt recorded in any trail")
	}
}

// TestHedgedStreamBeatsSlowDepot: the streaming reader rides the same
// engine through fetchExtent.
func TestHedgedStreamBeatsSlowDepot(t *testing.T) {
	e, tl, data, _ := hedgeEnv(t, false)
	x, err := tl.Upload("hedge3.dat", data, UploadOptions{
		Replicas: 2, Fragments: 4, Depots: e.infosFor("near-slow", "far-fast"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tl.Transfer = transfer.New(transfer.Config{
		Hedge:      true,
		HedgeAfter: 150 * time.Millisecond,
		Clock:      e.Clock,
	})
	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), data) {
		t.Fatal("hedged stream corrupted")
	}
	if c := tl.Transfer.Counters(); c.HedgesLaunched == 0 {
		t.Fatalf("stream never hedged: %+v", c)
	}
	if !rep.OK() {
		t.Fatalf("report: %+v", rep)
	}
}

// slowEngine is the engine both slow-replica tests read through: a fixed
// 150ms (virtual) hedge threshold on the reader's own scoreboard.
func slowEngine(e *env, sb *health.Scoreboard) *transfer.Engine {
	return transfer.New(transfer.Config{Hedge: true, HedgeAfter: 150 * time.Millisecond, Health: sb, Clock: e.Clock})
}

// servedOnlyBy fails the test unless every attempt of every extent went to
// the named depot.
func servedOnlyBy(t *testing.T, rep *Report, depot string) {
	t.Helper()
	for _, er := range rep.Extents {
		for _, a := range er.Trail {
			if a.Depot != depot {
				t.Fatalf("extent [%d,%d) tried %s (trail %+v), want only %s", er.Start, er.End, a.Depot, er.Trail, depot)
			}
		}
	}
}

// TestDownloadDemotesMeasuredSlowReplica: the warm-up upload measured the
// near depot at seconds per block against a 150ms hedge threshold, so the
// download ranks it behind the fast replica instead of starting every
// extent on it and hedging away.
func TestDownloadDemotesMeasuredSlowReplica(t *testing.T) {
	e, tl, data, x := hedgeEnv(t, true)
	tl.Transfer = slowEngine(e, tl.Health)
	got, rep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download corrupted")
	}
	servedOnlyBy(t, rep, "far-fast")
	if c := tl.Transfer.Counters(); c.HedgesLaunched != 0 {
		t.Fatalf("hedged %d times against a replica already measured slow", c.HedgesLaunched)
	}
}

// TestReadOnlyClientStopsHedgingSlowReplica: a client that never wrote to
// the slow depot learns it from the primaries its hedges cancel, and stops
// leading with it.
func TestReadOnlyClientStopsHedgingSlowReplica(t *testing.T) {
	e, _, data, x := hedgeEnv(t, false)
	// Slow by latency, not bandwidth. Every transfer shares one virtual
	// clock, so a starved primary charging 4 KiB chunks jumps it ~330ms at
	// a time under its racing backup, and the fast depot would measure as
	// slow too. A 5s round trip is one jump and 50ms of paced wall time,
	// which the backup finishes inside.
	e.Model.SetLink(geo.Harvard.Name, geo.UNC.Name, faultnet.Link{RTT: 5 * time.Second, Mbps: 100})
	sb := health.New(health.Config{Clock: e.Clock, Seed: 1})
	reader := e.healthTools(geo.Harvard, sb)
	reader.Transfer = slowEngine(e, sb)
	var hedges int64
	for i := 1; i <= 4; i++ {
		got, rep, err := reader.Download(x, DownloadOptions{Strategy: StrategyStatic})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("download %d corrupted", i)
		}
		prev := hedges
		hedges = reader.Transfer.Counters().HedgesLaunched

		if i == 1 && hedges == 0 {
			t.Fatal("the first download never hedged: the reader knew the slow depot before reading it")
		}
		if hedges == prev {
			servedOnlyBy(t, rep, "far-fast")
			return
		}
	}
	t.Fatalf("4 downloads all hedged (%d hedges): the reader never learned the slow depot", hedges)
}

// TestConcurrentCodedDownloadsShareDecode is the -race hammer for the
// semaphore plus singleflight: many goroutines download a Reed-Solomon-only
// file (every extent must be rebuilt from the coding group) through one
// shared engine and client.
func TestConcurrentCodedDownloadsShareDecode(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	e.addDepot("C", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	tl.Transfer = transfer.New(transfer.Config{MaxPerDepot: 2, Clock: e.Clock})
	data := payload(96 << 10)
	x, err := tl.UploadRS("rs.dat", data, CodedOptions{
		DataBlocks: 2, ParityBlocks: 1, Depots: e.infosFor("A", "B", "C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := tl.Download(x, DownloadOptions{})
			if err == nil && !bytes.Equal(got, data) {
				err = errMismatch
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	c := tl.Transfer.Counters()
	if c.SingleflightLeaders == 0 {
		t.Fatalf("no decode ran through the singleflight: %+v", c)
	}
	if c.SingleflightLeaders+c.SingleflightShared < workers {
		t.Fatalf("decode calls %d < %d workers", c.SingleflightLeaders+c.SingleflightShared, workers)
	}
}

var errMismatch = errBytes{}

type errBytes struct{}

func (errBytes) Error() string { return "downloaded bytes mismatch" }

// TestParallelDownloadRespectsDepotLimit: a wide parallel download through
// the engine may never hold more concurrent slots against one depot than
// configured. Exercised under -race by the tier-1 race target.
func TestParallelDownloadRespectsDepotLimit(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	tl.Transfer = transfer.New(transfer.Config{MaxPerDepot: 2, Clock: e.Clock})
	data := payload(256 << 10)
	x, err := tl.Upload("lim.dat", data, UploadOptions{Fragments: 16, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := tl.Download(x, DownloadOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("limited download corrupted")
	}
	if !rep.OK() {
		t.Fatalf("report: %+v", rep)
	}
	c := tl.Transfer.Counters()
	if c.LimitAcquires < 16 {
		t.Fatalf("LimitAcquires = %d, want >= 16", c.LimitAcquires)
	}
	if c.LimitWaits == 0 {
		t.Fatal("8 workers through 2 slots on one depot should have waited")
	}
}
