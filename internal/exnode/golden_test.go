package exnode

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
)

// The golden files pin the XML format byte for byte. They were written
// once by the encoding/xml-based Marshal and are never regenerated: a
// codec change that alters one stored byte fails TestMarshalGolden.

// fixedSet mints a deterministic capability trio: key i on addr.
func fixedSet(addr string, i int) ibp.CapSet {
	return ibp.MintSet(secret, addr, fmt.Sprintf("%032x", i+1))
}

func fixedMapping(depot string, i, replica int, off, length int64) *Mapping {
	set := fixedSet(strings.ToLower(depot)+".example.org:6714", i)
	return &Mapping{
		Offset: off, Length: length, Replica: replica,
		Read: set.Read, Write: set.Write, Manage: set.Manage,
		Depot: depot,
	}
}

var goldenExpires = time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC)

// goldenExNodes are the exNodes whose serialized form is pinned under
// testdata/golden, keyed by file stem.
func goldenExNodes() map[string]*ExNode {
	// Paper Figure 4, rightmost file. Every exNode-level optional field
	// is set, and every mapping carries every attribute a replica uses;
	// the coding fields appear in rs32.
	fig4 := New("fig4", 600)
	fig4.Created = time.Date(2002, 1, 11, 20, 33, 48, 0, time.FixedZone("EST5", 5*3600))
	fig4.Comment = "five copies of the 1 MB file"
	fig4.Cipher = "aes256-ctr"
	fig4.IV = strings.Repeat("0f", 16)
	for i, p := range []struct {
		depot       string
		replica     int
		off, length int64
	}{{"A", 0, 0, 200}, {"D", 0, 200, 400}, {"B", 1, 0, 300}, {"C", 1, 300, 100}, {"D", 1, 400, 200}} {
		m := fixedMapping(p.depot, i, p.replica, p.off, p.length)
		m.Function = FuncReplica
		m.Expires = goldenExpires.Add(time.Duration(i) * time.Hour)
		m.Bandwidth = 0.73 * float64(i+1)
		m.Checksum = strings.Repeat(fmt.Sprintf("%02x", i), 32)
		fig4.Add(m)
	}

	// A Reed-Solomon 3+2 group over a 3000-byte file.
	rs := New("rs32", 3000)
	rs.Created = time.Date(2002, 4, 15, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		m := fixedMapping(fmt.Sprintf("RS%d", i), 10+i, 0, 0, 3000)
		m.Function = FuncRSData
		if i >= 3 {
			m.Function = FuncRSParity
		}
		m.Group = "g0"
		m.BlockIndex = i
		m.DataBlocks = 3
		m.ParityBlocks = 2
		m.BlockSize = 1000
		m.Expires = goldenExpires
		m.Checksum = strings.Repeat("ab", 32)
		rs.Add(m)
	}

	enc := New("sealed", 4096)
	enc.Cipher = "aes256-ctr"
	enc.IV = "00112233445566778899aabbccddeeff"
	enc.Add(fixedMapping("UTK1", 20, 0, 0, 4096))

	empty := New("empty", 0)

	// Every character the encoder escapes or replaces: the five XML
	// specials, tab, newline, CR, a non-character (U+FFFE) and a byte
	// that is not UTF-8.
	const nasty = "a<&>\"'\tb\nc\rd\uFFFEe\xffz"
	special := New("special "+nasty, 10)
	special.Comment = "comment " + nasty
	sm := fixedMapping("X", 30, 0, 0, 10)
	sm.Depot = "depot " + nasty
	sm.Checksum = "sum " + nasty
	special.Add(sm)

	bw := New("bandwidths", 400)
	for i, v := range []float64{0.73, 1e-7, 1e21, negZero()} {
		m := fixedMapping(fmt.Sprintf("BW%d", i), 40+i, i, 0, 400)
		m.Bandwidth = v
		bw.Add(m)
	}

	return map[string]*ExNode{
		"fig4": fig4, "rs32": rs, "encrypted": enc, "empty": empty,
		"special": special, "bandwidth": bw,
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

func TestMarshalGolden(t *testing.T) {
	for name, x := range goldenExNodes() {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".xml"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Marshal output differs from golden file\n got: %q\nwant: %q", name, got, want)
		}
	}
}

// benchExNodes are the shapes the codec benchmarks run on: a small named
// object as stackbench's small_named stores it (two whole-file replicas,
// three capabilities each) and a Reed-Solomon 3+2 group.
func benchExNodes() []struct {
	name string
	x    *ExNode
} {
	small := New("obj/000123", 6144)
	small.Created = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	for r, depot := range []string{"UTK1", "UNC1"} {
		m := fixedMapping(depot, r, r, 0, 6144)
		m.Expires = small.Created.Add(time.Hour)
		m.Checksum = strings.Repeat("5e", 32)
		small.Add(m)
	}
	return []struct {
		name string
		x    *ExNode
	}{{"small_named", small}, {"rs3+2", goldenExNodes()["rs32"]}}
}

func BenchmarkMarshal(b *testing.B) {
	for _, c := range benchExNodes() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Marshal(c.x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	for _, c := range benchExNodes() {
		doc, err := Marshal(c.x)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
