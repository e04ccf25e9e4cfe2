package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/testbed"
)

// TestParallelUploadAbortsAndCleansUp kills one of two depots just after a
// parallel upload starts. The survivor is sized so it cannot absorb the
// dead depot's fragments, so the upload must fail — and when it does, every
// allocation that DID succeed must be deleted, not left stranded on the
// survivor.
func TestParallelUploadAbortsAndCleansUp(t *testing.T) {
	e := newEnv(t)
	// A can hold 5 of the 8 16KB fragments: its own 4 plus one failover.
	dA := e.addDepotCap("A", geo.UTK, nil, 80<<10)
	// B dies 2ms into the upload — mid-flight for every one of its
	// fragments (allocate+store costs >2ms of virtual time), so all of
	// B's fragments fail over to A, which cannot take them all.
	e.addDepot("B", geo.UTK, faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(2 * time.Millisecond), To: testbed.Start.Add(time.Hour)},
	}})
	tl := e.tools(geo.UTK, false)

	rep := &UploadReport{}
	data := payload(128 << 10)
	_, err := tl.Upload("f", data, UploadOptions{
		Fragments:   8,
		Parallelism: 4,
		Depots:      e.infosFor("A", "B"),
		Report:      rep,
	})
	if err == nil {
		t.Fatal("upload with a dead depot and a too-small survivor should fail")
	}
	if errors.Is(err, ErrUploadAborted) {
		t.Fatalf("Upload returned the abort marker instead of the real error: %v", err)
	}
	if rep.OK() {
		t.Fatal("report should record the failure")
	}
	// The survivor must not be left holding fragments of a failed upload.
	if n := dA.AllocationCount(); n != 0 {
		t.Fatalf("depot A holds %d leaked allocations after failed upload", n)
	}
	if rep.Cleaned == 0 {
		t.Fatal("expected at least one stranded allocation to be cleaned up")
	}
	// The timeline must show B failing.
	sawBFailure := false
	for _, f := range rep.Fragments {
		for _, a := range f.Trail {
			if a.Depot == "B" && !a.OK() {
				sawBFailure = true
			}
		}
	}
	if !sawBFailure {
		t.Fatalf("no failed attempt on B in the timeline:\n%s", rep.Timeline())
	}
}

// TestSequentialUploadCleansUpOnFailure covers the sequential path of the
// same audit: first fragment lands, second cannot be placed anywhere, and
// the first's allocation must be reclaimed.
func TestSequentialUploadCleansUpOnFailure(t *testing.T) {
	e := newEnv(t)
	// Room for exactly one of the two 16KB fragments.
	dA := e.addDepotCap("A", geo.UTK, nil, 16<<10)
	tl := e.tools(geo.UTK, false)

	rep := &UploadReport{}
	_, err := tl.Upload("f", payload(32<<10), UploadOptions{
		Fragments: 2,
		Depots:    e.infosFor("A"),
		Report:    rep,
	})
	if err == nil {
		t.Fatal("upload beyond capacity should fail")
	}
	if n := dA.AllocationCount(); n != 0 {
		t.Fatalf("depot A holds %d leaked allocations", n)
	}
	if rep.Cleaned != 1 {
		t.Fatalf("cleaned = %d, want 1", rep.Cleaned)
	}
}

// TestUploadReportTimeline checks the report on a successful upload that
// needed a failover: the trail must keep the failed attempt.
func TestUploadReportTimeline(t *testing.T) {
	e := newEnv(t)
	down := faultnet.Windows{Down: []faultnet.Window{{From: testbed.Start, To: testbed.Start.Add(time.Hour)}}}
	e.addDepot("DEAD", geo.UTK, down)
	e.addDepot("LIVE", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	rep := &UploadReport{}
	x, err := tl.Upload("f", payload(4<<10), UploadOptions{
		Depots: e.infosFor("DEAD", "LIVE"),
		Report: rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Fragments) != 1 {
		t.Fatalf("report: %+v", rep)
	}
	f := rep.Fragments[0]
	if f.Depot != "LIVE" {
		t.Fatalf("placed on %s, want LIVE", f.Depot)
	}
	if len(f.Trail) != 2 || f.Trail[0].OK() || !f.Trail[1].OK() {
		t.Fatalf("trail should be [DEAD failed, LIVE ok]: %+v", f.Trail)
	}
	if f.Trail[0].Depot != "DEAD" || f.Trail[0].Err == "" {
		t.Fatalf("first attempt: %+v", f.Trail[0])
	}
	if rep.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", rep.Failovers)
	}
	if rep.Bytes != 4<<10 || rep.Duration <= 0 {
		t.Fatalf("bytes/duration: %+v", rep)
	}
	tlText := rep.Timeline()
	if !strings.Contains(tlText, "DEAD") || !strings.Contains(tlText, "FAILED") {
		t.Fatalf("timeline text:\n%s", tlText)
	}
	if len(x.Mappings) != 1 {
		t.Fatalf("mappings = %d", len(x.Mappings))
	}
}

// TestDownloadReportTimeline checks the download-side trail: a failed
// attempt on the preferred depot followed by the successful failover.
func TestDownloadReportTimeline(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(time.Hour), To: testbed.Start.Add(3 * time.Hour)},
	}})
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	data := payload(16 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("B", "A")})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(90 * time.Minute)
	_, rep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	trail := rep.Extents[0].Trail
	if len(trail) != 2 || trail[0].OK() || !trail[1].OK() {
		t.Fatalf("trail should be [A failed, B ok]: %+v", trail)
	}
	if trail[0].Depot != "A" || trail[1].Depot != "B" {
		t.Fatalf("trail depots: %+v", trail)
	}
	if trail[1].Bytes != 16<<10 {
		t.Fatalf("winner bytes = %d", trail[1].Bytes)
	}
	if !strings.Contains(rep.Timeline(), "FAILED") {
		t.Fatalf("timeline text:\n%s", rep.Timeline())
	}
}

// TestCodedAndLayoutUploadsReclaimOnFailure is the same audit for the two
// upload paths that place each block on exactly one depot: when a later
// block cannot be stored, the blocks already stored must be deleted, not
// left on the surviving depots until their leases run out.
func TestCodedAndLayoutUploadsReclaimOnFailure(t *testing.T) {
	e := newEnv(t)
	names := []string{"D0", "D1", "D2", "D3", "D4"}
	for _, n := range names {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	requireEmpty := func(what, closed string) {
		t.Helper()
		for _, n := range names {
			if n == closed {
				continue
			}
			if c := e.Depots[n].AllocationCount(); c != 0 {
				t.Errorf("%s: depot %s holds %d leaked allocations", what, n, c)
			}
		}
	}

	// A three-fragment layout whose last depot is closed.
	e.Depots["D4"].Close()
	infos := e.infosFor("D0", "D1", "D4")
	layout := Layout{{
		{Depot: infos[0], Offset: 0, Length: 10 << 10},
		{Depot: infos[1], Offset: 10 << 10, Length: 10 << 10},
		{Depot: infos[2], Offset: 20 << 10, Length: 10 << 10},
	}}
	if _, err := tl.UploadLayout("l", payload(30<<10), layout, UploadOptions{}); err == nil {
		t.Fatal("layout upload onto a closed depot should fail")
	}
	requireEmpty("layout", "D4")

	// RS 3+2 over five depots with the fourth closed: blocks 0-2 land, block
	// 3 has nowhere to go (a coded block has one depot and no failover).
	e.Depots["D3"].Close()
	_, err := tl.UploadRS("c", payload(30<<10), CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Depots: e.infosFor(names...),
	})
	if err == nil {
		t.Fatal("coded upload onto a closed depot should fail")
	}
	requireEmpty("coded", "D3")
}
