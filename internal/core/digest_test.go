package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/erasure"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/integrity"
)

// requireOwnDigests fails unless every mapping of x records the digest of
// the bytes it was given: want(m) returns them.
func requireOwnDigests(t *testing.T, x *exnode.ExNode, want func(m *exnode.Mapping) []byte) {
	t.Helper()
	for _, m := range x.Mappings {
		if sum := integrity.Sum(want(m)); m.Checksum != sum {
			t.Fatalf("mapping [%d,%d) replica %d block %d on %s: checksum %.16s…, want %.16s…",
				m.Offset, m.End(), m.Replica, m.BlockIndex, m.Depot, m.Checksum, sum)
		}
	}
}

// TestUploadDigestsEveryReplicaOfAFragment: the three copies of a fragment
// are one payload, hashed once, and each records that fragment's digest.
func TestUploadDigestsEveryReplicaOfAFragment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			e := newEnv(t)
			for _, n := range []string{"A", "B", "C"} {
				e.addDepot(n, geo.UTK, nil)
			}
			tl := e.tools(geo.UTK, false)
			data := payload(10_001)
			x, err := tl.Upload("f", data, UploadOptions{
				Replicas: 3, Fragments: 2, Parallelism: workers, Checksum: true, Depots: e.infosFor("A", "B", "C"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(x.Mappings) != 6 {
				t.Fatalf("mappings = %d, want 6", len(x.Mappings))
			}
			requireOwnDigests(t, x, func(m *exnode.Mapping) []byte { return data[m.Offset:m.End()] })
			if x.Mappings[0].Checksum == x.Mappings[1].Checksum {
				t.Fatal("the two fragments record one digest")
			}
		})
	}
}

// TestUploadRSDigestsEachBlock: every block of a coding group spans the
// whole file, so a digest shared by file range would give all five blocks
// the first one's sum.
func TestUploadRSDigestsEachBlock(t *testing.T) {
	e := newEnv(t)
	names := []string{"D1", "D2", "D3", "D4", "D5"}
	for _, n := range names {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(30_001)
	x, err := tl.UploadRS("f", data, CodedOptions{DataBlocks: 3, ParityBlocks: 2, Checksum: true, Depots: e.infosFor(names...)})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := erasure.NewRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := erasure.Split(data, 3)
	parity, err := rs.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	all := append(blocks, parity...)
	requireOwnDigests(t, x, func(m *exnode.Mapping) []byte { return all[m.BlockIndex] })
	distinct := map[string]bool{}
	for _, m := range x.Mappings {
		distinct[m.Checksum] = true
	}
	if len(distinct) != 5 {
		t.Fatalf("%d distinct digests over five blocks, want 5", len(distinct))
	}
}

// TestUploadLayoutDigestsOwnBytes: two replicas cut at different offsets
// share first bytes but not lengths, so no fragment may take another's sum.
func TestUploadLayoutDigestsOwnBytes(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(1000)
	a, b := e.Infos["A"], e.Infos["B"]
	layout := Layout{
		{{Depot: a, Offset: 0, Length: 300}, {Depot: b, Offset: 300, Length: 700}},
		{{Depot: b, Offset: 0, Length: 500}, {Depot: a, Offset: 500, Length: 500}},
	}
	x, err := tl.UploadLayout("f", data, layout, UploadOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	requireOwnDigests(t, x, func(m *exnode.Mapping) []byte { return data[m.Offset:m.End()] })
}

// TestUploadWithoutChecksumRecordsNoDigest: no checksum asked, none made, on
// the replicated and the coded path alike.
func TestUploadWithoutChecksumRecordsNoDigest(t *testing.T) {
	e := newEnv(t)
	names := []string{"D1", "D2", "D3", "D4", "D5"}
	for _, n := range names {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(9_000)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 3, Fragments: 2, Depots: e.infosFor(names...)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tl.UploadRS("c", data, CodedOptions{DataBlocks: 3, ParityBlocks: 2, Depots: e.infosFor(names...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(x.Mappings, c.Mappings...) {
		if m.Checksum != "" {
			t.Fatalf("mapping [%d,%d) on %s records checksum %q without Checksum set", m.Offset, m.End(), m.Depot, m.Checksum)
		}
	}
}

// TestUploadDigestCatchesFlippingDepot: with one digest shared by all the
// copies of a fragment, the nearest depot flipping bytes is still caught on
// every extent, and each read fails over to a copy that verifies.
func TestUploadDigestCatchesFlippingDepot(t *testing.T) {
	e := newEnv(t)
	flipper := e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	e.addDepot("C", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(24 << 10)
	x, err := tl.Upload("f", data, UploadOptions{Replicas: 3, Fragments: 2, Checksum: true, Depots: e.infosFor("A", "B", "C")})
	if err != nil {
		t.Fatal(err)
	}
	e.Model.SetDepotCorruption(flipper.Addr(), true)
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corruption slipped through")
	}
	if len(rep.Extents) != 2 || rep.Failovers < len(rep.Extents) {
		t.Fatalf("%d extents, %d failovers: every extent should try A first and fail over", len(rep.Extents), rep.Failovers)
	}
	for _, ex := range rep.Extents {
		if ex.Depot == "A" {
			t.Fatalf("extent served by the flipping depot A")
		}
	}
}
