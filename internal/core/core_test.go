package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/nws"
	"repro/internal/testbed"
)

func TestUploadDownloadRoundTrip(t *testing.T) {
	e := newEnv(t)
	e.addDepot("UTK1", geo.UTK, nil)
	e.addDepot("UTK2", geo.UTK, nil)
	e.addDepot("UCSD1", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	data := payload(200 << 10)
	x, err := tl.Upload("file", data, UploadOptions{Replicas: 2, Fragments: 3, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	if x.Replicas() != 2 {
		t.Fatalf("replicas = %d", x.Replicas())
	}
	if len(x.Mappings) != 6 {
		t.Fatalf("mappings = %d, want 6", len(x.Mappings))
	}
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download mismatch")
	}
	if !rep.OK() || rep.Bytes != int64(len(data)) {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Duration <= 0 {
		t.Fatal("report duration should be positive in virtual time")
	}
}

func TestUploadSpreadsReplicasAcrossDepots(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(1000)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Fragments: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two copies of the same extent must not share a depot when two exist.
	if x.Mappings[0].Read.Addr == x.Mappings[1].Read.Addr {
		t.Fatal("replicas landed on the same depot")
	}
}

func TestDownloadRange(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(10_000)
	x, err := tl.Upload("f", data, UploadOptions{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tl.DownloadRange(x, 1234, 5678, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1234:1234+5678]) {
		t.Fatal("range mismatch")
	}
	// Out-of-range requests fail.
	if _, _, err := tl.DownloadRange(x, 9000, 5000, DownloadOptions{}); err == nil {
		t.Fatal("out-of-range download should fail")
	}
}

func TestDownloadFailsOverWhenDepotDown(t *testing.T) {
	e := newEnv(t)
	// Depot A goes down an hour from now; B holds the second copy.
	e.addDepot("A", geo.UTK, faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(time.Hour), To: testbed.Start.Add(3 * time.Hour)},
	}})
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	data := payload(64 << 10)
	// Upload while everything is up, then advance into A's outage.
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2,
		Depots:   e.infosFor("B", "A"), // copy 0 on B, copy 1 on A
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(90 * time.Minute)
	// Static strategy prefers A (same site as client) — which is down, so
	// the download must fail over to B and still succeed.
	got, rep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover download mismatch")
	}
	if rep.Failovers == 0 {
		t.Fatal("expected at least one failover")
	}
	if rep.Extents[0].Depot != "B" {
		t.Fatalf("served by %s, want B", rep.Extents[0].Depot)
	}
}

func TestDownloadFailsWhenAllReplicasDown(t *testing.T) {
	e := newEnv(t)
	down := faultnet.Windows{Down: []faultnet.Window{{From: testbed.Start, To: testbed.Start.Add(time.Hour)}}}
	e.addDepot("A", geo.UTK, down)
	e.addDepot("B", geo.UCSD, down)
	tl := e.tools(geo.UTK, false)
	// Upload during a clear window: advance past the outage, upload, then
	// jump back is impossible — instead upload to depots with a later
	// outage.
	e.Clock.Advance(2 * time.Hour) // everything back up
	data := payload(1 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B")})
	if err != nil {
		t.Fatal(err)
	}
	// Pull both depots down again with a fresh scripted window.
	e.Kill("A", time.Hour)
	e.Kill("B", time.Hour)
	_, rep, err := tl.Download(x, DownloadOptions{})
	if err == nil {
		t.Fatal("download with every replica down should fail")
	}
	if rep == nil || rep.OK() {
		t.Fatal("report should mark the failure")
	}
}

func TestDownloadStrategyNWSPrefersFastDepot(t *testing.T) {
	e := newEnv(t)
	// UCSB link is 10x faster than UCSD link from Harvard.
	e.Model.SetLink("HARVARD", "UCSB", faultnet.Link{RTT: 30 * time.Millisecond, Mbps: 50})
	e.Model.SetLink("HARVARD", "UCSD", faultnet.Link{RTT: 30 * time.Millisecond, Mbps: 5})
	e.addDepot("SB", geo.UCSB, nil)
	e.addDepot("SD", geo.UCSD, nil)
	tl := e.tools(geo.Harvard, true)

	data := payload(128 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("SD", "SB")})
	if err != nil {
		t.Fatal(err)
	}
	// Seed NWS with probes (uploads already recorded nothing; downloads do).
	// First download may pick either; by the second the feedback loop has
	// bandwidth history for at least one depot. Prime both explicitly.
	for _, name := range []string{"SD", "SB"} {
		addr := e.Depots[name].Addr()
		start := e.Clock.Now()
		if _, err := tl.IBP.Load(x.MappingsByDepot(name)[0].Read, 0, 1024); err != nil {
			t.Fatalf("prime %s: %v", name, err)
		}
		elapsed := e.Clock.Since(start)
		tl.NWS.Record("HARVARD", addr, nws.Bandwidth, float64(1024*8)/1e6/elapsed.Seconds())
	}
	_, rep, err := tl.Download(x, DownloadOptions{Strategy: StrategyNWS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extents[0].Depot != "SB" {
		t.Fatalf("NWS strategy picked %s, want SB (faster)", rep.Extents[0].Depot)
	}
}

func TestDownloadStrategyStaticPrefersNearDepot(t *testing.T) {
	e := newEnv(t)
	e.addDepot("FAR", geo.UCSB, nil)
	e.addDepot("NEAR", geo.UNC, nil)
	tl := e.tools(geo.UTK, false) // no NWS → auto = static
	data := payload(4 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("FAR", "NEAR")})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extents[0].Depot != "NEAR" {
		t.Fatalf("static strategy picked %s, want NEAR", rep.Extents[0].Depot)
	}
}

func TestChecksumDetectsCorruptionAndFailsOver(t *testing.T) {
	e := newEnv(t)
	dA := e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(32 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B"), Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	// A starts silently corrupting reads. Static strategy prefers A
	// (local), hits the checksum mismatch, and must fail over to B.
	e.Model.SetDepotCorruption(dA.Addr(), true)
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corruption slipped through")
	}
	if rep.Extents[0].Depot != "B" {
		t.Fatalf("served by %s, want failover to B", rep.Extents[0].Depot)
	}
	// Without verification the corrupt copy is accepted silently.
	got2, _, err := tl.Download(x, DownloadOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got2, data) {
		t.Fatal("expected corrupted bytes with verification off")
	}
}

func TestStreamingReaderMatchesDownload(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(100_000)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Fragments: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, rep, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed bytes mismatch")
	}
	if len(rep.Extents) == 0 || !rep.OK() {
		t.Fatalf("stream report: %+v", rep)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Fatalf("read after close = %v", err)
	}
}

func TestParallelDownloadMatchesSequential(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	e.addDepot("C", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(300_000)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Fragments: 6})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := tl.Download(x, DownloadOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, rep, err := tl.Download(x, DownloadOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) || !bytes.Equal(par, data) {
		t.Fatal("parallel download mismatch")
	}
	if !rep.OK() {
		t.Fatalf("parallel report: %+v", rep)
	}
}

func TestListAndFormat(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	down := faultnet.Windows{Down: []faultnet.Window{{From: testbed.Start, To: testbed.Start.Add(100 * time.Hour)}}}
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(10 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B")})
	if err != nil {
		t.Fatal(err)
	}
	// Take B down after upload.
	e.SetAvail("B", down)
	entries := tl.List(x)
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if !entries[0].Available || entries[1].Available {
		t.Fatalf("availability flags wrong: %+v", entries)
	}
	if got := Availability(entries); got != 50 {
		t.Fatalf("availability = %v, want 50", got)
	}
	out := FormatList(x.Name, x.Size, entries)
	if !strings.Contains(out, "Srwma") || !strings.Contains(out, "?rwm-") {
		t.Fatalf("format:\n%s", out)
	}
	if !strings.Contains(out, "-1") {
		t.Fatalf("unavailable segment should print -1:\n%s", out)
	}
}

func TestRefreshExtendsExpirations(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(1 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	before := x.Mappings[0].Expires
	e.Clock.Advance(30 * time.Minute)
	n, err := tl.Refresh(x, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(x.Mappings) {
		t.Fatalf("refreshed %d of %d", n, len(x.Mappings))
	}
	if !x.Mappings[0].Expires.After(before) {
		t.Fatal("expiration did not move forward")
	}
}

func TestTrim(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Trim(x, TrimOptions{}); err == nil {
		t.Fatal("empty trim selection should fail")
	}
	// Trim replica 1 without deleting from IBP: data still downloadable
	// from replica 0, and the byte array still exists on B.
	one := 1
	trimmed, err := tl.Trim(x, TrimOptions{Replica: &one})
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.Replicas() != 1 || len(trimmed.Mappings) != 1 {
		t.Fatalf("trimmed: %d replicas, %d mappings", trimmed.Replicas(), len(trimmed.Mappings))
	}
	if e.Depots["B"].AllocationCount() != 1 {
		t.Fatal("trim without DeleteFromIBP should keep the allocation")
	}
	// Original exnode untouched.
	if len(x.Mappings) != 2 {
		t.Fatal("trim mutated the input exnode")
	}
	got, _, err := tl.Download(trimmed, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after trim: %v", err)
	}
	// Trim with deletion frees the allocation.
	zero := 0
	_, err = tl.Trim(x, TrimOptions{Replica: &zero, DeleteFromIBP: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Depots["A"].AllocationCount() != 0 {
		t.Fatal("DeleteFromIBP should free the byte array")
	}
}

func TestTrimExpired(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(1 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 1, Depots: e.infosFor("A"), Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	y, err := tl.Upload("f2", data, UploadOptions{Replicas: 1, Depots: e.infosFor("B"), Duration: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Merge y's mapping into x as a second replica.
	m := *y.Mappings[0]
	m.Replica = 1
	x.Add(&m)
	e.Clock.Advance(2 * time.Hour) // first allocation expires
	trimmed, err := tl.Trim(x, TrimOptions{Expired: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Mappings) != 1 || trimmed.Mappings[0].Depot != "B" {
		t.Fatalf("expired trim kept: %+v", trimmed.Mappings)
	}
}

func TestAugmentAddsReplicas(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.Harvard, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(16 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	near := geo.Harvard.Loc
	aug, err := tl.Augment(x, AugmentOptions{Replicas: 1, Near: &near})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Replicas() != 2 {
		t.Fatalf("augmented replicas = %d", aug.Replicas())
	}
	// The new replica is near Harvard.
	var newMapping *exnode.Mapping
	for _, m := range aug.Mappings {
		if m.Replica == 1 {
			newMapping = m
		}
	}
	if newMapping == nil || newMapping.Depot != "B" {
		t.Fatalf("new replica on %+v, want B", newMapping)
	}
	got, _, err := tl.Download(aug, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after augment: %v", err)
	}
}

func TestRouteMovesFile(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.Harvard, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := tl.Route(x, geo.Harvard.Loc, AugmentOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range routed.Mappings {
		if m.Depot == "A" {
			t.Fatal("routed exnode still references the old depot")
		}
	}
	if e.Depots["A"].AllocationCount() != 0 {
		t.Fatal("route should delete the old replica from IBP")
	}
	got, _, err := tl.Download(routed, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after route: %v", err)
	}
}

func TestUploadValidation(t *testing.T) {
	e := newEnv(t)
	tl := e.tools(geo.UTK, false)
	tl.LBone = nil
	if _, err := tl.Upload("f", payload(10), UploadOptions{}); err == nil {
		t.Fatal("upload without depots or lbone should fail")
	}
	tl2 := e.tools(geo.UTK, false)
	if _, err := tl2.Upload("f", payload(10), UploadOptions{}); err == nil {
		t.Fatal("upload with empty registry should fail")
	}
}

func TestParallelUploadMatchesSequential(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"A", "B", "C"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(120_000)
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas: 2, Fragments: 4, Parallelism: 4, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Mappings) != 8 {
		t.Fatalf("mappings = %d", len(x.Mappings))
	}
	// Mapping order is deterministic: replica-major, offset order.
	for i := 1; i < len(x.Mappings); i++ {
		a, b := x.Mappings[i-1], x.Mappings[i]
		if a.Replica > b.Replica || (a.Replica == b.Replica && a.Offset >= b.Offset) {
			t.Fatalf("mapping order broken at %d: %+v then %+v", i, a, b)
		}
	}
	got, _, err := tl.Download(x, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after parallel upload: %v", err)
	}
}
