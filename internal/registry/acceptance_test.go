package registry_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/testbed"
)

type replicaObs struct {
	replica string
	ok      bool
	at      time.Time
}

// The acceptance experiment for the replicated registry, run entirely in
// virtual time against an injected fault schedule:
//
//	T0        three replicas healthy: register depots, upload, publish.
//	T0+1h     replica 0 dies (minority): every tool keeps working, the
//	          quorum masks the loss — a *tolerated* failure.
//	T0+3h     replica 1 dies too (majority): clients detect the loss,
//	          fail fast within a bounded virtual budget, and cut a
//	          postmortem bundle — a *detected* failure.
//	T0+6h     both recover.
//
// Every per-replica failure the client observes is checked against the
// schedule: nothing may fail outside its scripted outage window.
func TestQuorumSurvivesMinorityKillDetectsMajorityKill(t *testing.T) {
	// Two data depots, always up: depot failures are a different
	// experiment — this one isolates registry-replica failures.
	tb, err := testbed.New(7,
		testbed.Spec{Name: "UTK-d", Site: geo.UTK},
		testbed.Spec{Name: "UCSD-d", Site: geo.UCSD})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	clk, model := tb.Clock, tb.Model
	model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 20})
	model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})

	// The fault schedule. Replica 0 is down for [1h,6h); replica 1 for
	// [3h,6h). Minority phase: (1h,3h). Majority phase: (3h,6h).
	windows := []faultnet.Windows{
		{Down: []faultnet.Window{{From: testbed.Start.Add(time.Hour), To: testbed.Start.Add(6 * time.Hour)}}},
		{Down: []faultnet.Window{{From: testbed.Start.Add(3 * time.Hour), To: testbed.Start.Add(6 * time.Hour)}}},
		{},
	}

	// Three registry replicas, brought up on a placeholder view and then
	// reconfigured onto their real addresses once those are known.
	addrs := make([]string, 3)
	reps := make([]*registry.Replica, 3)
	for i := range addrs {
		srv, rep, err := registry.Serve("127.0.0.1:0", registry.Config{
			Members: []string{"placeholder:0"}, Seq: 1, Shards: 4, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i], reps[i] = srv.Addr(), rep
		model.AddDepot(addrs[i], faultnet.DepotState{Site: geo.UTK.Name, Avail: windows[i]})
	}
	view := registry.View{Seq: 2, Members: addrs, Shards: 4}
	for _, rep := range reps {
		if err := rep.Reconfigure(view); err != nil {
			t.Fatal(err)
		}
	}

	// The quorum client dials through the fault model and reports every
	// per-replica outcome to the observer log.
	var mu sync.Mutex
	var observed []replicaObs
	qc := registry.NewQuorumClient(strings.Join(addrs, ","),
		registry.WithDialer(model.DialerFrom(geo.UTK.Name)),
		registry.WithClock(clk),
		registry.WithTimeouts(2*time.Second, 30*time.Second),
		registry.WithObserver(func(replica string, ok bool) {
			mu.Lock()
			observed = append(observed, replicaObs{replica, ok, clk.Now()})
			mu.Unlock()
		}),
	)

	rec := obs.NewFlightRecorder(0)
	logger := obs.NewLogger(obs.LogConfig{W: io.Discard, Component: "registry-acceptance", Recorder: rec})
	tl := &core.Tools{
		IBP: ibp.NewClient(
			ibp.WithDialer(model.DialerFrom(geo.UTK.Name)),
			ibp.WithClock(clk),
			ibp.WithDialTimeout(2*time.Second),
			ibp.WithOpTimeout(60*time.Second),
		),
		LBone:     qc,
		Directory: registry.NewDirectory(qc),
		Clock:     clk,
		Site:      geo.UTK.Name,
		Loc:       geo.UTK.Loc,
		Logger:    logger,
	}

	// --- Phase A: healthy. Register depots, upload, publish. ---
	for _, name := range []string{"UTK-d", "UCSD-d"} {
		if err := qc.RegisterDepot(tb.Infos[name]); err != nil {
			t.Fatalf("healthy register: %v", err)
		}
	}
	data := make([]byte, 32<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	x, err := tl.Upload("acc/healthy.dat", data, core.UploadOptions{Replicas: 2})
	if err != nil {
		t.Fatalf("healthy upload: %v", err)
	}
	if _, err := tl.StoreExNode(x.Name, x, 0); err != nil {
		t.Fatalf("healthy store: %v", err)
	}
	if qc.Stats().Failovers.Load() != 0 {
		t.Fatalf("healthy phase recorded %d failovers", qc.Stats().Failovers.Load())
	}

	// --- Phase B: minority kill. Replica 0 is dead; the upload, the
	// publish, and the by-name download must all still go through. ---
	clk.Advance(90 * time.Minute) // T0+1h30m
	x2, err := tl.Upload("acc/minority.dat", data, core.UploadOptions{Replicas: 2})
	if err != nil {
		t.Fatalf("minority upload: %v (a minority kill must be tolerated)", err)
	}
	if _, err := tl.StoreExNode(x2.Name, x2, 0); err != nil {
		t.Fatalf("minority store: %v", err)
	}
	got, _, err := tl.DownloadByName("acc/minority.dat", core.DownloadOptions{})
	if err != nil {
		t.Fatalf("minority download-by-name: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("minority download returned %d bytes, want %d", len(got), len(data))
	}
	if qc.Stats().Failovers.Load() == 0 {
		t.Fatal("minority phase succeeded without recording a failover — replica 0 was not exercised")
	}
	if qc.Stats().MajorityLost.Load() != 0 {
		t.Fatalf("minority phase recorded %d majority losses", qc.Stats().MajorityLost.Load())
	}

	// --- Phase C: majority kill. Replicas 0 and 1 dead; clients must
	// detect the loss and fail fast within the virtual budget. ---
	clk.Advance(2 * time.Hour) // T0+3h30m
	before := clk.Now()
	_, _, err = tl.DownloadByName("acc/minority.dat", core.DownloadOptions{})
	elapsed := clk.Now().Sub(before)
	if err == nil {
		t.Fatal("download-by-name succeeded with a majority of replicas dead")
	}
	if !errors.Is(err, registry.ErrMajorityLost) {
		t.Fatalf("majority-phase err = %v, want ErrMajorityLost in chain", err)
	}
	if cl := registry.Classify(err); cl != registry.ClassDetected {
		t.Fatalf("majority loss classified %v, want detected", cl)
	}
	// Fail-fast budget: a verdict costs at most one dial per member plus
	// one view-refresh pass — seconds of virtual time, not minutes.
	const budget = 30 * time.Second
	if elapsed > budget {
		t.Fatalf("majority-loss verdict took %v of virtual time, budget %v", elapsed, budget)
	}

	// Upload (depot discovery) fails fast the same way, surfaced through
	// core's taxonomy-carrying DiscoveryError.
	_, err = tl.Upload("acc/doomed.dat", data, core.UploadOptions{})
	var de *core.DiscoveryError
	if !errors.As(err, &de) {
		t.Fatalf("majority-phase upload err = %v, want DiscoveryError", err)
	}
	if de.Class != registry.ClassDetected {
		t.Fatalf("upload failure classified %v, want detected", de.Class)
	}
	if qc.Stats().MajorityLost.Load() == 0 {
		t.Fatal("majority losses not counted in client stats")
	}

	// Cut the postmortem bundle the operator would get.
	logger.Error("registry majority lost", obs.KeyComponent, "registry", "err", err.Error())
	bundle := obs.Bundle{
		Reason:    "registry-majority-lost",
		Component: "registry-acceptance",
		CreatedAt: clk.Now(),
		Err:       err.Error(),
		Entries:   rec.Recent(0),
	}
	if len(bundle.Entries) == 0 {
		t.Fatal("postmortem bundle has no flight-recorder entries")
	}
	found := false
	for _, e := range bundle.Entries {
		if strings.Contains(e.Msg, "majority lost") {
			found = true
		}
	}
	if !found {
		t.Fatal("bundle entries do not record the majority-loss event")
	}
	dir := os.Getenv("REGISTRY_SMOKE_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	path, err := obs.WriteBundle(dir, bundle)
	if err != nil {
		t.Fatalf("writing postmortem bundle: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("postmortem bundle %s: %v", path, err)
	}
	if !strings.HasPrefix(filepath.Base(path), "POSTMORTEM_") {
		t.Fatalf("bundle filename %q", filepath.Base(path))
	}

	// --- Phase D: recovery. Both replicas return; service resumes. ---
	clk.Advance(3 * time.Hour) // T0+6h30m
	if _, _, err := tl.DownloadByName("acc/minority.dat", core.DownloadOptions{}); err != nil {
		t.Fatalf("post-recovery download: %v", err)
	}

	// Every observed per-replica failure must fall inside that replica's
	// scripted outage window: the client may not blame a healthy replica.
	mu.Lock()
	defer mu.Unlock()
	byAddr := map[string]faultnet.Windows{}
	for i, a := range addrs {
		byAddr[a] = windows[i]
	}
	fails := 0
	for _, o := range observed {
		if o.ok {
			continue
		}
		fails++
		if byAddr[o.replica].UpAt(o.at) {
			t.Fatalf("replica %s observed down at %v, outside its scheduled outage", o.replica, o.at)
		}
	}
	if fails == 0 {
		t.Fatal("no per-replica failures observed across the whole schedule")
	}
}
