package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/registry"
	"repro/internal/vclock"
)

// Regression: a dead registry must surface as a *detected* discovery
// failure — fail fast with the taxonomy attached — never as an empty
// depot list that places the upload on zero depots.
func TestUploadDeadRegistryIsDetectedFailure(t *testing.T) {
	tl := &Tools{
		IBP:   ibp.NewClient(),
		LBone: registry.NewQuorumClient("127.0.0.1:1", registry.WithTimeouts(200*time.Millisecond, time.Second)),
		Loc:   geo.UTK.Loc,
	}
	_, err := tl.Upload("doomed", payload(1024), UploadOptions{})
	if err == nil {
		t.Fatal("upload with dead registry succeeded")
	}
	var de *DiscoveryError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DiscoveryError", err)
	}
	if de.Class != registry.ClassDetected {
		t.Fatalf("class = %v, want detected", de.Class)
	}
	if !errors.Is(err, lbone.ErrNoRegistry) {
		t.Fatalf("err = %v, want ErrNoRegistry in chain", err)
	}
}

// quorumFleet brings up three registry replicas and two real depots on
// loopback, registered through the returned quorum client.
func quorumFleet(t *testing.T, opts ...registry.QuorumOption) *registry.QuorumClient {
	t.Helper()
	addrs := make([]string, 3)
	reps := make([]*registry.Replica, 3)
	for i := range addrs {
		srv, rep, err := registry.Serve("127.0.0.1:0", registry.Config{
			Members: []string{"placeholder:0"}, Seq: 1, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i], reps[i] = srv.Addr(), rep
	}
	view := registry.View{Seq: 2, Members: addrs, Shards: 4}
	for _, rep := range reps {
		if err := rep.Reconfigure(view); err != nil {
			t.Fatal(err)
		}
	}
	qc := registry.NewQuorumClient(strings.Join(addrs, ","),
		append([]registry.QuorumOption{registry.WithTimeouts(time.Second, 5*time.Second)}, opts...)...)
	t.Cleanup(func() { qc.Close() })

	for _, name := range []string{"D1", "D2"} {
		d, err := depot.Serve("127.0.0.1:0", depot.Config{
			Secret: []byte("dir-test-" + name), Capacity: 64 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		err = qc.RegisterDepot(lbone.DepotInfo{
			Addr: d.Addr(), Name: name, Site: geo.UTK.Name, Loc: geo.UTK.Loc,
			Capacity: 64 << 20, MaxDuration: 30 * 24 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return qc
}

// The quorum client is a DepotSource and the directory stores exNodes:
// upload discovers depots through the replica group, publishes the
// exNode by name, and a different client downloads it by name alone.
func TestUploadStoreDownloadByNameThroughQuorum(t *testing.T) {
	qc := quorumFleet(t)
	tl := &Tools{
		IBP:       ibp.NewClient(),
		LBone:     qc,
		Loc:       geo.UTK.Loc,
		Directory: registry.NewDirectory(qc),
	}
	data := payload(8192)
	x, err := tl.Upload("files/report.dat", data, UploadOptions{Replicas: 2, Fragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	version, err := tl.StoreExNode(x.Name, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 {
		t.Fatalf("stored version = %d", version)
	}

	// A second client resolves by name alone.
	other := &Tools{IBP: ibp.NewClient(), LBone: qc, Loc: geo.UTK.Loc,
		Directory: registry.NewDirectory(qc)}
	got, _, err := other.DownloadByName("files/report.dat", DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("downloaded bytes differ")
	}

	// Version must thread through update cycles.
	loaded, v, err := other.LoadExNode(x.Name)
	if err != nil || v != 1 {
		t.Fatalf("load = v%d, %v", v, err)
	}
	if _, err := other.StoreExNode(x.Name, loaded, v); err != nil {
		t.Fatal(err)
	}
	if _, err := other.StoreExNode(x.Name, loaded, v); !errors.Is(err, registry.ErrVersionConflict) {
		t.Fatalf("stale store err = %v, want version conflict", err)
	}

	// Without a directory the by-name surface refuses cleanly.
	bare := &Tools{IBP: ibp.NewClient()}
	if _, _, err := bare.LoadExNode("x"); !errors.Is(err, ErrNoDirectory) {
		t.Fatalf("bare load err = %v", err)
	}
}

// The by-name exchange budget, as a count (DESIGN §9.6): inside one
// snapshot TTL a download by name is one quorum operation — its DGET — and
// an upload published by name is one — its DPUT; the depot table both of
// them consult is answered from the client's snapshot. Reading the L-Bone
// afresh on each call made this 200.
func TestByNameExchangeBudget(t *testing.T) {
	// The client's clock stands still: the whole run is inside one TTL.
	qc := quorumFleet(t, registry.WithClock(vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))))
	tl := &Tools{IBP: ibp.NewClient(), LBone: qc, Loc: geo.UTK.Loc, Directory: registry.NewDirectory(qc)}
	data := payload(4096)
	put := func(name string, near geo.Point) {
		t.Helper()
		x, err := tl.Upload(name, data, UploadOptions{Near: &near})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tl.StoreExNode(name, x, 0); err != nil {
			t.Fatal(err)
		}
	}
	get := func(name string) {
		t.Helper()
		got, _, err := tl.DownloadByName(name, DownloadOptions{})
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("download %s: %d bytes, %v", name, len(got), err)
		}
	}
	put("files/warm", geo.UTK.Loc)
	get("files/warm")

	st := qc.Stats()
	ops, hits := st.Ops.Load(), st.SnapshotHits.Load()
	sites := []geo.Site{geo.UTK, geo.UCSD, geo.Harvard, geo.Turin}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("files/f%02d", i)
		put(name, sites[i%len(sites)].Loc)
		get(name)
	}
	if got := st.Ops.Load() - ops; got != 100 {
		t.Errorf("50 downloads by name + 50 published uploads cost %d quorum operations, want 100 (one DGET or one DPUT each)", got)
	}
	if got := st.SnapshotHits.Load() - hits; got != 100 {
		t.Errorf("snapshot hits = %d, want 100 (one depot-table lookup per operation)", got)
	}
}
