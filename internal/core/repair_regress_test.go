package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/testbed"
)

// Regression tests for the repair path. Each of these pinned a real bug
// before the autonomous maintenance fleet was allowed to run the path
// continuously: a third-party augment that leaked every allocation made
// before the failing one, a coverage metric blind to coded mappings (so
// Maintain re-repaired healthy coded files forever), and Maintain passes
// that were not idempotent under churn.

func TestAugmentThirdPartyCleansUpOnPartialFailure(t *testing.T) {
	// Source replica has two fragments; the targets are DST1 (up) and DST2
	// (down for the whole test). One new copy fits on DST1 alone, its second
	// fragment failing over from DST2; a second copy then has no depot that
	// does not already hold the same bytes. That augment must fail — and
	// must not leave the first copy's allocations orphaned on DST1.
	e := newEnv(t)
	e.addDepot("SRC1", geo.UTK, nil)
	e.addDepot("SRC2", geo.UTK, nil)
	e.addDepot("DST1", geo.Harvard, nil)
	dead := faultnet.Windows{Down: []faultnet.Window{{From: testbed.Start.Add(-time.Hour), To: testbed.Start.Add(24 * time.Hour)}}}
	e.addDepot("DST2", geo.Harvard, dead)
	tl := e.tools(geo.UTK, false)

	x, err := tl.Upload("f", payload(48<<10), UploadOptions{
		Fragments: 2, Depots: e.infosFor("SRC1", "SRC2"), Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One copy is the case that used to fail: third-party had no failover.
	one, err := tl.Augment(x, AugmentOptions{ThirdParty: true, Depots: e.infosFor("DST1", "DST2")})
	if err != nil {
		t.Fatalf("one copy should fail over onto DST1: %v", err)
	}
	added := 1
	if _, err := tl.Trim(one, TrimOptions{Replica: &added, DeleteFromIBP: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Augment(x, AugmentOptions{
		Replicas:   2,
		ThirdParty: true,
		Depots:     e.infosFor("DST1", "DST2"),
	}); err == nil {
		t.Fatal("third-party augment with a dead target should fail")
	}
	st, err := tl.IBP.Status(e.Depots["DST1"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Allocations != 0 {
		t.Fatalf("DST1 holds %d orphan allocation(s) after the failed augment (%d bytes leaked)",
			st.Allocations, st.UsedBytes)
	}
}

func TestMaintainHealthyCodedFileIsNoop(t *testing.T) {
	// A 3+2 Reed-Solomon file with every block reachable tolerates two
	// losses — effective redundancy 3, comfortably above the default
	// coverage floor of 2. Maintain must leave it alone instead of piling
	// replicas on top of the coding group every pass.
	e := newEnv(t)
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(30 << 10)
	x, err := tl.UploadRS("f", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Checksum: true,
		Depots: e.infosFor("A", "B", "C", "D", "E"), Duration: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AddedReplicas != 0 || rep.TrimmedDead != 0 || rep.Refreshed != 0 {
		t.Fatalf("healthy coded maintain acted: %+v", rep)
	}
	if len(out.Mappings) != len(x.Mappings) {
		t.Fatalf("mappings %d -> %d", len(x.Mappings), len(out.Mappings))
	}
	if rep.MinCoverage != 3 {
		t.Fatalf("coded coverage = %d, want 3 (5 blocks, any 3 rebuild)", rep.MinCoverage)
	}
	// And stays a no-op on the next pass: the first one must not have
	// manufactured work for the second.
	_, rep2, err := tl.Maintain(out, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.AddedReplicas != 0 || rep2.TrimmedDead != 0 {
		t.Fatalf("second coded maintain acted: %+v", rep2)
	}
}

func TestMaintainRepairsDegradedCodedFile(t *testing.T) {
	// Losing two blocks of a 3+2 group leaves exactly 3 of 5: still
	// recoverable, but with zero losses to spare (effective redundancy 1).
	// Maintain must now repair — and the repaired exNode must again be
	// a no-op on the following pass.
	e := newEnv(t)
	for _, n := range []string{"A", "B", "C", "D", "E", "F"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(30 << 10)
	x, err := tl.UploadRS("f", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Checksum: true,
		Depots: e.infosFor("A", "B", "C", "D", "E"), Duration: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range x.Mappings[:2] {
		if _, err := tl.IBP.Delete(m.Manage); err != nil {
			t.Fatal(err)
		}
	}
	out, rep, err := tl.Maintain(x, MaintainOptions{
		MinCoverage: 2, RefreshBelow: time.Hour, RefreshTo: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedDead != 2 {
		t.Fatalf("trimmed = %d, want 2", rep.TrimmedDead)
	}
	if rep.AddedReplicas != 1 {
		t.Fatalf("added = %d, want 1 (3-of-5 left: one loss from data loss)", rep.AddedReplicas)
	}
	got, _, err := tl.Download(out, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after coded repair: %v", err)
	}
	_, rep2, err := tl.Maintain(out, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.AddedReplicas != 0 || rep2.TrimmedDead != 0 {
		t.Fatalf("pass after coded repair acted: %+v", rep2)
	}
}

func TestMaintainSecondPassIsNoop(t *testing.T) {
	// One pass over a damaged file does all the work; the next pass over
	// its output finds nothing to do. Without idempotence a maintenance
	// daemon would grow every file it visits without bound.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	e.addDepot("C", geo.UNC, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(24 << 10)
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 48 * time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.IBP.Delete(x.Mappings[0].Manage); err != nil {
		t.Fatal(err)
	}
	opts := MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour, RefreshTo: 48 * time.Hour}
	out, rep, err := tl.Maintain(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedDead != 1 || rep.AddedReplicas != 1 {
		t.Fatalf("first pass: %+v", rep)
	}
	out2, rep2, err := tl.Maintain(out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Refreshed != 0 || rep2.TrimmedDead != 0 || rep2.AddedReplicas != 0 {
		t.Fatalf("second pass acted: %+v", rep2)
	}
	if len(out2.Mappings) != len(out.Mappings) {
		t.Fatalf("second pass changed mappings: %d -> %d", len(out.Mappings), len(out2.Mappings))
	}
}

func TestMaintainRefreshesBeforeExpiryNotTrim(t *testing.T) {
	// Refresh-then-trim ordering on the virtual clock: a pass that runs
	// minutes before expiry must extend the allocations, so that after the
	// original deadline passes nothing is trimmed and nothing re-uploaded.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 2 * time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 5 virtual minutes before the allocations lapse.
	e.Clock.Advance(115 * time.Minute)
	opts := MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour, RefreshTo: 72 * time.Hour}
	out, rep, err := tl.Maintain(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 2 {
		t.Fatalf("refreshed = %d, want 2", rep.Refreshed)
	}
	if rep.TrimmedDead != 0 || rep.AddedReplicas != 0 {
		t.Fatalf("pre-expiry pass did more than refresh: %+v", rep)
	}
	// Sail past the original expiry: the refresh must have carried both
	// allocations across, leaving the next pass nothing to do.
	e.Clock.Advance(24 * time.Hour)
	out2, rep2, err := tl.Maintain(out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TrimmedDead != 0 || rep2.AddedReplicas != 0 {
		t.Fatalf("post-expiry pass acted (refresh did not stick): %+v", rep2)
	}
	got, _, err := tl.Download(out2, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after refreshed expiry: %v", err)
	}
}

func TestMaintainDoesNotTrimWhileCircuitOpen(t *testing.T) {
	// An open circuit means "we cannot tell whether the allocation is
	// gone" — exactly the depot-down case the paper says not to trim on.
	// Even if the allocation really is gone, trimming must wait until the
	// breaker recloses and a probe can prove it.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	e.addDepot("C", geo.UNC, nil)
	tl := e.tools(geo.UTK, false)
	tl.Health = health.New(health.Config{FailureThreshold: 3, Clock: e.Clock})
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 48 * time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The allocation on A is truly gone, but A's circuit is open: Maintain
	// must not trust stale knowledge, must not probe, must not trim.
	addrA := x.Mappings[0].Manage.Addr
	if _, err := tl.IBP.Delete(x.Mappings[0].Manage); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tl.Health.Report(addrA, health.Timeout, 0)
	}
	if !tl.Health.Blocked(addrA) {
		t.Fatal("circuit for A did not open")
	}
	out, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Minute, RefreshTo: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedDead != 0 {
		t.Fatalf("trimmed %d mapping(s) behind an open circuit", rep.TrimmedDead)
	}
	// Coverage repair still runs — A counts as unavailable — but the
	// blocked mapping stays in the exNode for a post-recovery verdict.
	if rep.AddedReplicas != 1 {
		t.Fatalf("added = %d, want 1", rep.AddedReplicas)
	}
	kept := false
	for _, m := range out.Mappings {
		if m.Manage.Addr == addrA {
			kept = true
		}
	}
	if !kept {
		t.Fatal("mapping behind the open circuit was dropped")
	}
}
