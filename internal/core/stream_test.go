package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/testbed"
	"repro/internal/transfer"
)

// TestStreamReadNeverSkipsFailedExtent is the silent-data-loss regression:
// the old reader advanced its extent cursor before the fetch, so a Read
// that failed — then was retried after the depot recovered — returned the
// NEXT extent's bytes in place of the failed one, splicing mismatched
// ranges without any error. The fix latches the failure: no later Read may
// ever return bytes that skip the failed extent.
func TestStreamReadNeverSkipsFailedExtent(t *testing.T) {
	e := newEnv(t)
	// The depot is scheduled to be down between T+10min and T+20min; the
	// schedule is baked in up front so pooled connections see it too.
	e.addDepot("A", geo.UTK, faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(10 * time.Minute), To: testbed.Start.Add(20 * time.Minute)},
	}})
	tl := e.tools(geo.UTK, false)
	data := payload(200_000)
	x, err := tl.Upload("latch.dat", data, UploadOptions{Fragments: 4, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	extLen := int(x.Boundaries(0, x.Size)[0].Len())

	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Consume exactly the first extent while the depot is up.
	first := make([]byte, extLen)
	if _, err := io.ReadFull(r, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, data[:extLen]) {
		t.Fatal("first extent corrupted")
	}
	if rep.Bytes != int64(extLen) {
		t.Fatalf("report.Bytes after one extent = %d, want %d (progress, not the whole range)", rep.Bytes, extLen)
	}

	// Jump into the outage: the next extent's fetch must fail.
	e.Clock.Advance(10 * time.Minute)
	if _, err := r.Read(make([]byte, 1)); err == nil {
		t.Fatal("read against a dead depot should fail")
	}

	// Jump past the outage: the depot is healthy again. The old reader
	// would now silently serve extent 2, dropping extent 1's bytes; the
	// fixed reader stays failed.
	e.Clock.Advance(15 * time.Minute)
	buf := make([]byte, extLen)
	n, err := r.Read(buf)
	if err == nil {
		if n > 0 && bytes.Equal(buf[:n], data[2*extLen:2*extLen+n]) {
			t.Fatal("reader silently skipped the failed extent and served the next one")
		}
		t.Fatal("read after a fetch failure must keep failing, not resume")
	}
	// The report reflects only the delivered bytes.
	if rep.Bytes != int64(extLen) {
		t.Fatalf("report.Bytes after failure = %d, want %d", rep.Bytes, extLen)
	}
}

// TestStreamBudgetEnforced: the old reader ignored DownloadOptions.Budget
// entirely. Measured on the virtual clock, a streamed download over a slow
// link must stop starting new extents once the budget is spent, and the
// report must show how far it actually got.
func TestStreamBudgetEnforced(t *testing.T) {
	e := newEnv(t)
	e.addDepot("slow", geo.UTK, nil)
	e.Model.SetLink(geo.Harvard.Name, geo.UTK.Name, faultnet.Link{RTT: 50 * time.Millisecond, Mbps: 1})
	tl := e.tools(geo.Harvard, false)
	data := payload(400 << 10)
	x, err := tl.Upload("budget.dat", data, UploadOptions{Fragments: 8, Depots: e.infosFor("slow")})
	if err != nil {
		t.Fatal(err)
	}
	// Each 50 KiB extent takes ~0.4s of virtual time at 1 Mbps; a 1s budget
	// admits only the first couple of extents.
	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{Budget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("delivered %d bytes, want partial progress", len(got))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("delivered prefix corrupted")
	}
	if rep.Bytes != int64(len(got)) {
		t.Fatalf("report.Bytes = %d, want %d (actual progress)", rep.Bytes, len(got))
	}
}

// TestStreamReportCountsFailovers: the old reader never accumulated
// Failovers, so a stream that fought through dead replicas reported a
// clean run.
func TestStreamReportCountsFailovers(t *testing.T) {
	e := newEnv(t)
	// The statically-preferred near depot goes down at T+5min, before the
	// stream starts (the schedule is set up front so pooled connections
	// from the upload observe it too).
	e.addDepot("near", geo.UNC, faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(5 * time.Minute), To: testbed.Start.Add(2 * time.Hour)},
	}})
	e.addDepot("far", geo.UCSD, nil)
	tl := e.tools(geo.Harvard, false)
	data := payload(100_000)
	x, err := tl.Upload("fo.dat", data, UploadOptions{
		Replicas: 2, Fragments: 4, Depots: e.infosFor("near", "far"),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(5 * time.Minute)
	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream corrupted")
	}
	if rep.Failovers == 0 {
		t.Fatal("every extent failed over from the dead near depot, but Failovers = 0")
	}
	if rep.Bytes != int64(len(data)) {
		t.Fatalf("report.Bytes = %d, want %d", rep.Bytes, len(data))
	}
}

// TestStreamSeedMatchesDownload: StrategyRandom must pick the same
// candidate order per extent whether the range is streamed or downloaded in
// one call. The old reader mixed the post-increment cursor (extent index
// plus one) into the seed, so the two paths diverged.
func TestStreamSeedMatchesDownload(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	e.addDepot("C", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(300_000)
	x, err := tl.Upload("seed.dat", data, UploadOptions{
		Replicas: 3, Fragments: 6, Depots: e.infosFor("A", "B", "C"),
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DownloadOptions{Strategy: StrategyRandom, Seed: 42}
	_, dlRep, err := tl.Download(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, stRep, err := tl.OpenRangeReader(x, 0, x.Size, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); err != nil {
		t.Fatal(err)
	}
	if len(dlRep.Extents) != len(stRep.Extents) {
		t.Fatalf("extent counts differ: %d vs %d", len(dlRep.Extents), len(stRep.Extents))
	}
	for i := range dlRep.Extents {
		if dlRep.Extents[i].Depot != stRep.Extents[i].Depot {
			t.Fatalf("extent %d served by %s when downloaded but %s when streamed: seed mixing diverged",
				i, dlRep.Extents[i].Depot, stRep.Extents[i].Depot)
		}
	}
}

// TestStreamReadahead: with a readahead window the reader prefetches
// through the transfer engine, the bytes still come out exact, and every
// fetch passed through the per-depot limiter.
func TestStreamReadahead(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	tl.Transfer = transfer.New(transfer.Config{MaxPerDepot: 2, Clock: e.Clock})
	data := payload(256 << 10)
	x, err := tl.Upload("ra.dat", data, UploadOptions{
		Replicas: 2, Fragments: 8, Depots: e.infosFor("A", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{Readahead: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readahead stream corrupted")
	}
	if !rep.OK() || len(rep.Extents) != 8 {
		t.Fatalf("report: %+v", rep)
	}
	if c := tl.Transfer.Counters(); c.LimitAcquires < 8 {
		t.Fatalf("LimitAcquires = %d, want >= 8 (every fetch holds a slot)", c.LimitAcquires)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCloseWithInflightReadahead: closing early must not deadlock or
// leak — abandoned prefetches drain into buffered channels.
func TestStreamCloseWithInflightReadahead(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(128 << 10)
	x, err := tl.Upload("close.dat", data, UploadOptions{Fragments: 8, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{Readahead: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("read after close = %v", err)
	}
}
