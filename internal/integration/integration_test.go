// Package integration exercises the production path end-to-end: real depot
// daemons and a real L-Bone server (a lone one: a view of one member) on
// loopback TCP, the registry client, system dialer and real clock — the
// exact configuration the cmd/ binaries run, with no simulation layers.
package integration

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/depot"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/registry"
	"repro/internal/sealing"
)

// stack is a full production-path deployment on loopback.
type stack struct {
	lboneServer *lbone.Server
	lboneClient *registry.QuorumClient
	depots      []*depot.Depot
}

func startStack(t *testing.T, depotSites []geo.Site) *stack {
	t.Helper()
	s := &stack{}
	srv, _, err := registry.Serve("127.0.0.1:0", registry.Config{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s.lboneServer = srv
	s.lboneClient = registry.NewQuorumClient(srv.Addr())
	t.Cleanup(func() { s.lboneClient.Close() })

	for i, site := range depotSites {
		d, err := depot.Serve("127.0.0.1:0", depot.Config{
			Secret:      []byte{byte(i), 1, 2, 3},
			Capacity:    128 << 20,
			MaxDuration: 24 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		err = s.lboneClient.RegisterDepot(lbone.DepotInfo{
			Addr:        d.Addr(),
			Name:        site.Name + "-depot",
			Site:        site.Name,
			Loc:         site.Loc,
			Capacity:    128 << 20,
			MaxDuration: 24 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.depots = append(s.depots, d)
	}
	return s
}

func (s *stack) tools(site geo.Site, withNWS bool) *core.Tools {
	t := &core.Tools{
		IBP:   ibp.NewClient(ibp.WithDialTimeout(2 * time.Second)),
		LBone: s.lboneClient,
		Site:  site.Name,
		Loc:   site.Loc,
	}
	if withNWS {
		t.NWS = nws.NewService(nil)
	}
	return t
}

func TestFullStackUploadDownload(t *testing.T) {
	s := startStack(t, []geo.Site{geo.UTK, geo.UCSD, geo.Harvard})
	tools := s.tools(geo.UTK, false)

	data := bytes.Repeat([]byte("production path "), 8192) // 128 KiB
	x, err := tools.Upload("prod.dat", data, core.UploadOptions{
		Replicas:  2,
		Fragments: 3,
		Duration:  time.Hour,
		Checksum:  true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// exNode survives serialization — the sharing path of paper §2.2.
	blob, err := exnode.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := exnode.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}

	// A different client (different site, fresh Tools) downloads via the
	// shared exNode.
	other := s.tools(geo.Harvard, true)
	got, rep, err := other.Download(shared, core.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-client download mismatch")
	}
	if !rep.OK() {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFullStackLBoneDiscovery(t *testing.T) {
	s := startStack(t, []geo.Site{geo.UTK, geo.UCSD, geo.UCSB})
	// Proximity query through the real server.
	near := geo.UCSD.Loc
	got, err := s.lboneClient.Query(lbone.Requirements{Near: &near, Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Site != "UCSD" || got[1].Site != "UCSB" {
		t.Fatalf("proximity query: %+v", got)
	}
	// Re-registration (what a depot does every heartbeat interval) is
	// idempotent.
	if err := s.lboneClient.RegisterDepot(got[0]); err != nil {
		t.Fatal(err)
	}
	// Deregistered depots disappear.
	if err := s.lboneClient.DeregisterDepot(got[0].Addr); err != nil {
		t.Fatal(err)
	}
	rest, err := s.lboneClient.Query(lbone.Requirements{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 {
		t.Fatalf("after deregister: %d depots", len(rest))
	}
}

func TestFullStackLifecycle(t *testing.T) {
	// upload → ls → refresh → augment → route → trim → download, all over
	// the real wire.
	s := startStack(t, []geo.Site{geo.UTK, geo.Harvard})
	tools := s.tools(geo.UTK, false)

	data := bytes.Repeat([]byte{9, 8, 7, 6}, 4096)
	near := geo.UTK.Loc
	x, err := tools.Upload("life.dat", data, core.UploadOptions{
		Near: &near, Duration: time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := tools.List(x)
	if core.Availability(entries) != 100 {
		t.Fatalf("availability = %v", core.Availability(entries))
	}
	if _, err := tools.Refresh(x, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	harvardLoc := geo.Harvard.Loc
	aug, err := tools.Augment(x, core.AugmentOptions{Replicas: 1, Near: &harvardLoc, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if aug.Replicas() != 2 {
		t.Fatalf("replicas = %d", aug.Replicas())
	}
	zero := 0
	trimmed, err := tools.Trim(aug, core.TrimOptions{Replica: &zero, DeleteFromIBP: true})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tools.Download(trimmed, core.DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after lifecycle: %v", err)
	}
}

func TestFullStackEncryptedSharing(t *testing.T) {
	// One user uploads sealed data; another gets the exnode AND the key
	// out of band; a third gets only the exnode.
	s := startStack(t, []geo.Site{geo.UTK, geo.UCSD})
	owner := s.tools(geo.UTK, false)
	key := sealing.DeriveKey("shared secret")
	data := bytes.Repeat([]byte("classified "), 2048)
	x, err := owner.Upload("sealed.dat", data, core.UploadOptions{
		Replicas: 2, EncryptionKey: key, Checksum: true, Duration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := exnode.Marshal(x)
	shared, err := exnode.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	friend := s.tools(geo.UCSD, false)
	got, _, err := friend.Download(shared, core.DownloadOptions{DecryptionKey: key})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("friend with key: %v", err)
	}
	stranger := s.tools(geo.UCSD, false)
	if _, _, err := stranger.Download(shared, core.DownloadOptions{}); err == nil {
		t.Fatal("stranger without key should be refused client-side")
	}
}

func TestFullStackCodedStorage(t *testing.T) {
	s := startStack(t, []geo.Site{geo.UTK, geo.UTK, geo.UTK, geo.UTK, geo.UTK})
	tools := s.tools(geo.UTK, false)
	data := bytes.Repeat([]byte{1, 2, 3}, 30_000)
	x, err := tools.UploadRS("coded.dat", data, core.CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Duration: time.Hour, Checksum: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Physically stop two depot daemons (not simulated — real close).
	s.depots[0].Close()
	s.depots[1].Close()
	got, _, err := tools.Download(x, core.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RS decode mismatch after killing two daemons")
	}
}
