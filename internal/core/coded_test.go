package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
)

func TestUploadRSRoundTrip(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"D1", "D2", "D3", "D4", "D5"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(100_003) // deliberately not divisible by k
	x, err := tl.UploadRS("f", data, CodedOptions{DataBlocks: 3, ParityBlocks: 2, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Mappings) != 5 {
		t.Fatalf("mappings = %d, want 5", len(x.Mappings))
	}
	// A coded exnode has no replica mappings; download must go through
	// coded recovery.
	got, rep, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RS download mismatch")
	}
	if !rep.Extents[0].Coded {
		t.Fatal("extent should be marked coded")
	}
}

func TestRSDownloadSurvivesTwoDepotLosses(t *testing.T) {
	e := newEnv(t)
	var names []string
	for _, n := range []string{"D1", "D2", "D3", "D4", "D5"} {
		e.addDepot(n, geo.UTK, nil)
		names = append(names, n)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(50_000)
	x, err := tl.UploadRS("f", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 2,
		Depots: e.infosFor(names...),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill two of the five depots (one data, one parity block).
	for _, n := range []string{"D1", "D5"} {
		e.Kill(n, time.Hour)
	}
	got, _, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("RS recovery mismatch after two losses")
	}
	// Kill a third: only 2 of 5 blocks remain < k=3.
	e.Kill("D2", time.Hour)
	if _, _, err := tl.Download(x, DownloadOptions{}); err == nil {
		t.Fatal("download with fewer than k surviving blocks should fail")
	}
}

func TestUploadXORSurvivesOneLoss(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"D1", "D2", "D3", "D4"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(30_000)
	x, err := tl.UploadXOR("f", data, CodedOptions{
		DataBlocks: 3,
		Depots:     e.infosFor("D1", "D2", "D3", "D4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Mappings) != 4 { // 3 data + 1 parity
		t.Fatalf("mappings = %d", len(x.Mappings))
	}
	// Storage overhead is 1/k versus 1x for replication.
	var stored int64
	for _, m := range x.Mappings {
		stored += m.BlockSize
	}
	if stored >= 2*int64(len(data)) {
		t.Fatalf("XOR stored %d bytes for %d of data — worse than replication", stored, len(data))
	}
	e.Kill("D2", time.Hour)
	got, _, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("XOR recovery mismatch")
	}
	// Two losses exceed XOR tolerance.
	e.Kill("D3", time.Hour)
	if _, _, err := tl.Download(x, DownloadOptions{}); err == nil {
		t.Fatal("XOR with two losses should fail")
	}
}

func TestCodedXMLRoundTripStillDownloads(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"D1", "D2", "D3"} {
		e.addDepot(n, geo.UTK, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(9999)
	x, err := tl.UploadRS("f", data, CodedOptions{DataBlocks: 2, ParityBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := exnode.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := exnode.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tl.Download(x2, DownloadOptions{})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after XML round trip: %v", err)
	}
}

func TestHybridReplicaPlusParity(t *testing.T) {
	// An exnode can mix a single replica with a coding group: the replica
	// serves normal reads; the coding group provides recovery when the
	// replica's depot dies.
	e := newEnv(t)
	e.addDepot("R", geo.UTK, nil)
	for _, n := range []string{"C1", "C2", "C3", "C4"} {
		e.addDepot(n, geo.UCSD, nil)
	}
	tl := e.tools(geo.UTK, false)
	data := payload(20_000)
	replica, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("R")})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := tl.UploadRS("f", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 1,
		Depots: e.infosFor("C1", "C2", "C3", "C4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid := replica.Clone()
	for _, m := range coded.Mappings {
		mm := *m
		hybrid.Add(&mm)
	}
	if err := hybrid.Validate(); err != nil {
		t.Fatal(err)
	}
	// Normal path: replica serves.
	_, rep, err := tl.Download(hybrid, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extents[0].Coded {
		t.Fatal("replica should serve when available")
	}
	// Replica depot dies: coded recovery takes over.
	e.Kill("R", time.Hour)
	got, rep2, err := tl.Download(hybrid, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hybrid recovery mismatch")
	}
	if !rep2.Extents[0].Coded {
		t.Fatal("recovery should be marked coded")
	}
}

// TestDecodeNeverGuessesTheCode pins that the decoder takes the code from
// the exNode, not from which mappings happen to remain: Maintain may trim
// every parity mapping of a group whose data blocks are all intact.
func TestDecodeNeverGuessesTheCode(t *testing.T) {
	cases := []struct {
		name    string
		rs      bool
		trim    []int // block indices dropped from the exNode
		down    []int // block indices whose depot is down
		wantErr bool
	}{
		{name: "rs 3+2 without parity mappings", rs: true, trim: []int{3, 4}},
		{name: "xor 3+1 without parity mapping", trim: []int{3}},
		{name: "rs 3+2 missing a data and a parity block", rs: true, trim: []int{3}, down: []int{0}},
		{name: "xor 3+1 missing data with no parity left", trim: []int{3}, down: []int{1}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			names := []string{"D0", "D1", "D2", "D3", "D4"}
			for _, n := range names {
				e.addDepot(n, geo.UTK, nil)
			}
			tl := e.tools(geo.UTK, false)
			data := payload(30_001)
			opts := CodedOptions{DataBlocks: 3, ParityBlocks: 2, Depots: e.infosFor(names...), Checksum: true}
			upload := tl.UploadXOR
			if tc.rs {
				upload = tl.UploadRS
			}
			x, err := upload("f", data, opts)
			if err != nil {
				t.Fatal(err)
			}
			var trim []int
			for i, m := range x.Mappings {
				for _, b := range tc.trim {
					if m.BlockIndex == b {
						trim = append(trim, i)
					}
				}
				for _, b := range tc.down {
					if m.BlockIndex == b {
						e.Kill(m.Depot, time.Hour)
					}
				}
			}
			if x, err = tl.Trim(x, TrimOptions{Indices: trim}); err != nil {
				t.Fatal(err)
			}
			got, _, err := tl.Download(x, DownloadOptions{})
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), x.Mappings[0].Group) {
					t.Fatalf("err = %v, want a detected failure naming group %s", err, x.Mappings[0].Group)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("decoded bytes differ")
			}
		})
	}
}
