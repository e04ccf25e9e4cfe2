package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/nws"
	"repro/internal/testbed"
)

func TestMaxAttemptsPerExtentBoundsFailover(t *testing.T) {
	e := newEnv(t)
	down := faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(time.Hour), To: testbed.Start.Add(100 * time.Hour)},
	}}
	e.addDepot("A", geo.UTK, down)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(4 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B")})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(2 * time.Hour) // A is now down; static prefers A.
	// With one attempt allowed, the download must fail rather than fall
	// over to B.
	_, rep, err := tl.Download(x, DownloadOptions{
		Strategy:             StrategyStatic,
		MaxAttemptsPerExtent: 1,
	})
	if err == nil {
		t.Fatal("bounded failover should give up")
	}
	if rep.Extents[0].Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", rep.Extents[0].Attempts)
	}
	// Unbounded, it succeeds from B.
	got, _, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("unbounded failover: %v", err)
	}
}

func TestRandomStrategyDeterministicPerSeed(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"A", "B", "C", "D"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(8 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 4, Depots: e.infosFor("A", "B", "C", "D")})
	if err != nil {
		t.Fatal(err)
	}
	_, rep1, err := tl.Download(x, DownloadOptions{Strategy: StrategyRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, rep2, err := tl.Download(x, DownloadOptions{Strategy: StrategyRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Extents[0].Depot != rep2.Extents[0].Depot {
		t.Fatalf("same seed chose %s then %s", rep1.Extents[0].Depot, rep2.Extents[0].Depot)
	}
}

func TestListShowsBandwidthForecast(t *testing.T) {
	e := newEnv(t)
	d := e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, true)
	data := payload(2 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	tl.NWS.Record("UTK", d.Addr(), nws.Bandwidth, 27.5)
	entries := tl.List(x)
	if entries[0].Bandwidth != 27.5 {
		t.Fatalf("bandwidth = %v, want 27.5", entries[0].Bandwidth)
	}
	out := FormatList(x.Name, x.Size, entries)
	if !bytes.Contains([]byte(out), []byte("27.50")) {
		t.Fatalf("list output missing forecast:\n%s", out)
	}
}

func TestDownloadRecordsNWSFeedback(t *testing.T) {
	e := newEnv(t)
	d := e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, true)
	data := payload(64 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tl.NWS.Forecast("UTK", d.Addr(), nws.Bandwidth); ok {
		t.Fatal("no forecast expected before any download")
	}
	if _, _, err := tl.Download(x, DownloadOptions{}); err != nil {
		t.Fatal(err)
	}
	bw, ok := tl.NWS.Forecast("UTK", d.Addr(), nws.Bandwidth)
	if !ok || bw <= 0 {
		t.Fatalf("download did not feed NWS: %v, %v", bw, ok)
	}
}

func TestEmptyFileDownload(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	x, err := tl.Upload("empty", nil, UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || len(rep.Extents) != 0 {
		t.Fatalf("empty download: %d bytes, %d extents", len(got), len(rep.Extents))
	}
}

func TestRemoteNWSWithTools(t *testing.T) {
	// Tools work against a remote NWS daemon exactly like a local service.
	e := newEnv(t)
	d := e.addDepot("A", geo.UTK, nil)
	svc := nws.NewService(e.Clock)
	srv, err := nws.ServeNWS("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tl := e.tools(geo.UTK, false)
	tl.NWS = nws.NewRemote(srv.Addr())
	data := payload(16 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tl.Download(x, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download with remote NWS: %v", err)
	}
	// The download fed the remote daemon.
	if _, ok := tl.NWS.Forecast("UTK", d.Addr(), nws.Bandwidth); !ok {
		t.Fatal("remote NWS did not receive download feedback")
	}
}

func TestVerifyAudit(t *testing.T) {
	e := newEnv(t)
	dA := e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(32 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: e.infosFor("A", "B"), Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	res := tl.Verify(x)
	if !res.Healthy() || res.OK != 2 {
		t.Fatalf("healthy exnode: %s", res)
	}
	// Corrupt depot A: verify must localize the bad copy while B stays ok.
	e.Model.SetDepotCorruption(dA.Addr(), true)
	res = tl.Verify(x)
	if res.Corrupt != 1 || res.OK != 1 {
		t.Fatalf("after corruption: %s", res)
	}
	if res.Healthy() {
		t.Fatal("corrupt exnode reported healthy")
	}
	for _, en := range res.Entries {
		if en.Mapping.Depot == "A" && en.State != "corrupt" {
			t.Fatalf("A state = %s", en.State)
		}
		if en.Mapping.Depot == "B" && en.State != "ok" {
			t.Fatalf("B state = %s", en.State)
		}
	}
	// Take B down: its segment reports unavailable.
	e.Kill("B", time.Hour)
	res = tl.Verify(x)
	if res.Unavailable != 1 {
		t.Fatalf("after outage: %s", res)
	}
	// Without checksums everything is unchecked.
	e.Model.SetDepotCorruption(dA.Addr(), false)
	y, err := tl.Upload("g", data, UploadOptions{Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	if res := tl.Verify(y); res.Unchecked != 1 {
		t.Fatalf("no-checksum exnode: %s", res)
	}
	// Coded blocks are audited in full too: an RS 3+2 group on five fresh
	// depots, one of which flips bytes and one of which goes down.
	coded := []string{"C1", "C2", "C3", "C4", "C5"}
	for _, n := range coded {
		e.addDepot(n, geo.UTK, nil)
	}
	z, err := tl.UploadRS("h", data, CodedOptions{DataBlocks: 3, ParityBlocks: 2, Depots: e.infosFor(coded...), Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	if res := tl.Verify(z); res.OK != 5 {
		t.Fatalf("healthy coded exnode: %s", res)
	}
	e.Model.SetDepotCorruption(e.Depots["C1"].Addr(), true)
	e.Kill("C2", time.Hour)
	res = tl.Verify(z)
	if res.OK != 3 || res.Corrupt != 1 || res.Unavailable != 1 {
		t.Fatalf("coded exnode with a corrupt and a down depot: %s", res)
	}
	for _, en := range res.Entries {
		if want := map[string]string{"C1": "corrupt", "C2": "unavailable"}[en.Mapping.Depot]; want != "" && en.State != want {
			t.Fatalf("%s state = %s, want %s", en.Mapping.Depot, en.State, want)
		}
	}
}

func TestDownloadBudget(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	// Slow remote link so extents take real virtual time.
	e.Model.SetLink("HARVARD", "UTK", faultnet.Link{RTT: 50 * time.Millisecond, Mbps: 1})
	tl := e.tools(geo.Harvard, false)
	data := payload(400 << 10) // ~3.3 s at 1 Mbit/s
	x, err := tl.Upload("f", data, UploadOptions{Fragments: 8, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	// A 1-second budget cannot finish 3+ seconds of transfer.
	_, rep, err := tl.Download(x, DownloadOptions{Budget: time.Second})
	if err == nil {
		t.Fatal("budget-bound download should fail")
	}
	budgeted := 0
	for _, er := range rep.Extents {
		if er.Err == ErrBudgetExceeded {
			budgeted++
		}
	}
	if budgeted == 0 {
		t.Fatalf("no extents marked budget-exceeded: %+v", rep.Extents)
	}
	// A generous budget succeeds.
	got, _, err := tl.Download(x, DownloadOptions{Budget: time.Minute})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("generous budget: %v", err)
	}
}

func TestDownloadBudgetParallel(t *testing.T) {
	// The parallel path must enforce Budget too: workers check the
	// deadline before starting each extent and mark skipped ones with
	// ErrBudgetExceeded rather than silently fetching past the budget.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.Model.SetLink("HARVARD", "UTK", faultnet.Link{RTT: 50 * time.Millisecond, Mbps: 1})
	tl := e.tools(geo.Harvard, false)
	data := payload(400 << 10) // ~3.3 s at 1 Mbit/s
	x, err := tl.Upload("f", data, UploadOptions{Fragments: 8, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := tl.Download(x, DownloadOptions{Budget: time.Second, Parallelism: 3})
	if err == nil {
		t.Fatal("budget-bound parallel download should fail")
	}
	budgeted := 0
	for _, er := range rep.Extents {
		if er.Err == ErrBudgetExceeded {
			budgeted++
		}
	}
	if budgeted == 0 {
		t.Fatalf("no extents marked budget-exceeded: %+v", rep.Extents)
	}
	got, _, err := tl.Download(x, DownloadOptions{Budget: time.Minute, Parallelism: 3})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("generous budget: %v", err)
	}
}
