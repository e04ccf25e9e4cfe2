package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/obs"
)

func TestMaintainHealthyIsNoop(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(16 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 0 || rep.TrimmedDead != 0 || rep.AddedReplicas != 0 {
		t.Fatalf("healthy maintain acted: %+v", rep)
	}
	if rep.MinCoverage != 2 || len(out.Mappings) != 2 {
		t.Fatalf("coverage = %d, mappings = %d", rep.MinCoverage, len(out.Mappings))
	}
}

func TestMaintainRefreshesExpiring(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	x, err := tl.Upload("f", payload(4<<10), UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	before := x.Mappings[0].Expires
	// Expiring within the 24h default window: a refresh must fire.
	_, rep, err := tl.Maintain(x, MaintainOptions{RefreshTo: 72 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed != 2 {
		t.Fatalf("refreshed = %d, want 2", rep.Refreshed)
	}
	if !x.Mappings[0].Expires.After(before.Add(24 * time.Hour)) {
		t.Fatalf("expiry not extended: %v -> %v", before, x.Mappings[0].Expires)
	}
}

func TestMaintainTrimsGoneAndRepairs(t *testing.T) {
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
	// Permanently delete the copy on A (allocation gone, depot still up).
	if _, err := tl.IBP.Delete(x.Mappings[0].Manage); err != nil {
		t.Fatal(err)
	}
	out, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour, RefreshTo: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedDead != 1 {
		t.Fatalf("trimmed = %d, want 1", rep.TrimmedDead)
	}
	if rep.AddedReplicas != 1 {
		t.Fatalf("added = %d, want 1", rep.AddedReplicas)
	}
	if rep.MinCoverage < 2 {
		t.Fatalf("post-repair coverage = %d", rep.MinCoverage)
	}
	got, _, err := tl.Download(out, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after repair: %v", err)
	}
}

func TestMaintainDoesNotTrimDownDepots(t *testing.T) {
	// A depot being down is temporary (the paper's cron restart): its
	// mappings stay in the exnode; only coverage repair kicks in.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	e.addDepot("C", geo.UNC, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2, Depots: e.infosFor("A", "B"), Duration: 48 * time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Kill("A", time.Hour)
	out, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedDead != 0 {
		t.Fatalf("down depot was trimmed: %+v", rep)
	}
	if rep.AddedReplicas != 1 {
		t.Fatalf("added = %d, want 1 (coverage dropped to 1 while A is down)", rep.AddedReplicas)
	}
	// The down depot's mapping is still there — when A comes back the
	// exnode has 3 copies.
	count := 0
	for _, m := range out.Mappings {
		if m.Depot == "A" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("A mappings = %d, want 1", count)
	}
}

// probeCounter counts the PROBE operations an IBP client issues.
type probeCounter struct{ n atomic.Int64 }

func (p *probeCounter) Record(ev obs.Event) {
	if ev.Verb == ibp.OpProbe {
		p.n.Add(1)
	}
}

// TestMaintainProbesEachMappingOnce pins the cost of a healthy pass: one
// PROBE per mapping. Listing, trimming and both coverage measurements all
// read the same probe results.
func TestMaintainProbesEachMappingOnce(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"A", "B", "C", "D"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	probes := &probeCounter{}
	tl.IBP = ibp.NewClient(ibp.WithDialer(e.Model.DialerFrom("UTK")), ibp.WithClock(e.Clock), ibp.WithObserver(probes))
	x, err := tl.Upload("f", payload(16<<10), UploadOptions{
		Replicas: 2, Fragments: 2, Depots: e.infosFor("A", "B", "C", "D"), Duration: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	probes.n.Store(0)
	_, rep, err := tl.Maintain(x, MaintainOptions{MinCoverage: 2, RefreshBelow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinCoverage != 2 || rep.AddedReplicas != 0 || rep.TrimmedDead != 0 {
		t.Fatalf("healthy pass acted: %+v", rep)
	}
	if got := probes.n.Load(); got != 4 {
		t.Fatalf("PROBEs = %d for %d mappings, want one each", got, len(x.Mappings))
	}
}

// downloadWholeReplica is the strawman the paper's per-extent failover
// (§2.3) answers: fetch one entire copy at a time, failing over copy by
// copy. Each copy is a plain Download of the exNode cut down to that
// copy's mappings, so any dead fragment fails the whole copy.
func downloadWholeReplica(tl *Tools, x *exnode.ExNode, opts DownloadOptions) ([]byte, *Report, error) {
	err := exnode.ErrNoCoverage
	seen := map[int]bool{}
	for _, m := range x.Mappings {
		if !m.IsReplica() || seen[m.Replica] {
			continue
		}
		seen[m.Replica] = true
		one := x.Clone()
		one.Mappings = x.ReplicaMappings(m.Replica)
		data, rep, derr := tl.Download(one, opts)
		if derr == nil {
			return data, rep, nil
		}
		err = derr
	}
	return nil, nil, err
}

func TestWholeReplicaBaselineLosesWhereExtentsWin(t *testing.T) {
	// The ablation behind the paper's extent-based download: take two
	// copies and kill ONE depot from EACH copy. No single copy is fully
	// up, so the whole-replica baseline fails; extent-level failover
	// stitches the file together from the surviving halves.
	e := newEnv(t)
	e.addDepot("A1", geo.UTK, nil)
	e.addDepot("A2", geo.UTK, nil)
	e.addDepot("B1", geo.UCSD, nil)
	e.addDepot("B2", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(40 << 10)
	// copy 0 = A1+A2, copy 1 = B1+B2 (two fragments each).
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas:            2,
		Fragments:           2,
		Depots:              e.infosFor("A1", "A2", "B1", "B2"),
		Checksum:            true,
		FragmentsPerReplica: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Place copies deliberately: Upload rotates, so find which depots
	// hold copy 0 and kill one from each copy.
	byReplica := map[int][]string{}
	for _, m := range x.Mappings {
		byReplica[m.Replica] = append(byReplica[m.Replica], m.Depot)
	}
	e.Kill(byReplica[0][0], time.Hour)
	e.Kill(byReplica[1][1], time.Hour)

	// Whole-replica baseline: every copy has a dead fragment → fails.
	if _, rep, err := downloadWholeReplica(tl, x, DownloadOptions{}); err == nil {
		t.Fatalf("baseline should fail with one dead depot per copy (report %+v)", rep)
	}
	// Extent-based download: survives.
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("extent download mismatch")
	}
	if !rep.OK() {
		t.Fatalf("report: %+v", rep)
	}
}

func TestWholeReplicaSucceedsWhenACopyIsIntact(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(16 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B"), Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	// Kill A: copy on B is intact; the baseline fails over to it.
	e.Kill("A", time.Hour)
	got, rep, err := downloadWholeReplica(tl, x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("baseline mismatch")
	}
	if rep.Failovers == 0 && rep.Extents[0].Depot != "B" {
		t.Fatalf("expected service from B: %+v", rep)
	}
}

func TestAugmentThirdParty(t *testing.T) {
	e := newEnv(t)
	e.addDepot("SRC1", geo.UTK, nil)
	e.addDepot("SRC2", geo.UTK, nil)
	e.addDepot("DST1", geo.Harvard, nil)
	e.addDepot("DST2", geo.Harvard, nil)
	// The depots must dial through the simulated WAN for COPY transfers.
	tl := e.tools(geo.UTK, false)
	data := payload(48 << 10)
	x, err := tl.Upload("f", data, UploadOptions{
		Fragments: 2, Depots: e.infosFor("SRC1", "SRC2"), Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	near := geo.Harvard.Loc
	aug, err := tl.Augment(x, AugmentOptions{
		Replicas:   1,
		Near:       &near,
		ThirdParty: true,
		Depots:     e.infosFor("DST1", "DST2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Replicas() != 2 {
		t.Fatalf("replicas = %d", aug.Replicas())
	}
	// New mappings preserve fragment boundaries and checksums.
	newMs := aug.ReplicaMappings(1)
	oldMs := aug.ReplicaMappings(0)
	if len(newMs) != len(oldMs) {
		t.Fatalf("fragments: %d vs %d", len(newMs), len(oldMs))
	}
	for i := range newMs {
		if newMs[i].Offset != oldMs[i].Offset || newMs[i].Checksum != oldMs[i].Checksum {
			t.Fatalf("fragment %d not preserved", i)
		}
	}
	// Kill the source depots: the copied replica alone serves the file,
	// proving real bytes moved depot-to-depot.
	for _, n := range []string{"SRC1", "SRC2"} {
		e.Kill(n, time.Hour)
	}
	got, _, err := tl.Download(aug, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download from copied replica: %v", err)
	}
}

func TestAugmentThirdPartyNeedsAvailableReplica(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	x, err := tl.Upload("f", payload(4<<10), UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	e.Kill("A", time.Hour)
	if _, err := tl.Augment(x, AugmentOptions{ThirdParty: true, Depots: e.infosFor("B")}); err == nil {
		t.Fatal("third-party augment with no available source should fail")
	}
}

// TestThirdPartyCopyCrossesTheWAN pins that a depot's COPY dials through
// the simulated WAN from the depot's own site, like every client: the
// source is at UCSD, the target at UCSB and the client at UTK, so only the
// depot-to-depot transfer uses the UCSD↔UCSB link.
func TestThirdPartyCopyCrossesTheWAN(t *testing.T) {
	e := newEnv(t)
	e.addDepot("SRC", geo.UCSD, nil)
	e.addDepot("DST", geo.UCSB, nil)
	tl := e.tools(geo.UTK, false)
	x, err := tl.Upload("f", payload(1<<20), UploadOptions{Depots: e.infosFor("SRC"), Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	augment := func() (*exnode.ExNode, error) {
		return tl.Augment(x, AugmentOptions{ThirdParty: true, Depots: e.infosFor("DST"), Duration: time.Hour})
	}

	t.Run("link down", func(t *testing.T) {
		now := e.Clock.Now()
		e.Model.SetLink(geo.UCSD.Name, geo.UCSB.Name, faultnet.Link{
			RTT: 12 * time.Millisecond, Mbps: 5,
			Avail: faultnet.Windows{Down: []faultnet.Window{{From: now, To: now.Add(time.Hour)}}},
		})
		if _, err := augment(); err == nil {
			t.Fatal("COPY over a downed UCSD↔UCSB link succeeded")
		}
		st, err := tl.IBP.Status(e.Infos["DST"].Addr)
		if err != nil {
			t.Fatal(err)
		}
		if st.Allocations != 0 {
			t.Fatalf("target holds %d allocation(s) after the failed augment", st.Allocations)
		}
	})

	t.Run("slow link", func(t *testing.T) {
		// 1 MiB at 0.5 Mbit/s is 16.8 s on the wire.
		e.Model.SetLink(geo.UCSD.Name, geo.UCSB.Name, faultnet.Link{RTT: 12 * time.Millisecond, Mbps: 0.5})
		before := e.Clock.Now()
		aug, err := augment()
		if err != nil {
			t.Fatal(err)
		}
		if took := e.Clock.Since(before); took < 16*time.Second {
			t.Fatalf("1 MiB COPY over a 0.5 Mbit/s link took %v of virtual time, want >= 16s", took)
		}
		if aug.Replicas() != 2 {
			t.Fatalf("replicas = %d, want 2", aug.Replicas())
		}
	})
}
