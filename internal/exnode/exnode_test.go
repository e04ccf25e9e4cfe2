package exnode

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ibp"
)

var secret = []byte("exnode-test")

func capFor(t *testing.T, addr string, typ ibp.CapType) ibp.Cap {
	t.Helper()
	key, err := ibp.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return ibp.MintCap(secret, addr, key, typ)
}

func mapping(t *testing.T, depot string, replica int, off, length int64) *Mapping {
	t.Helper()
	return &Mapping{
		Offset:  off,
		Length:  length,
		Replica: replica,
		Read:    capFor(t, depot+":6714", ibp.CapRead),
		Write:   capFor(t, depot+":6714", ibp.CapWrite),
		Manage:  capFor(t, depot+":6714", ibp.CapManage),
		Depot:   depot,
	}
}

// paperFigure4Right builds the rightmost exNode of the paper's Figure 4:
// a 600-byte file with two replicas — replica 0 split A[0:200), D[200:600);
// replica 1 split B[0:300), C[300:400), D[400:600).
func paperFigure4Right(t *testing.T) *ExNode {
	x := New("fig4", 600)
	x.Add(mapping(t, "A", 0, 0, 200))
	x.Add(mapping(t, "D", 0, 200, 400))
	x.Add(mapping(t, "B", 1, 0, 300))
	x.Add(mapping(t, "C", 1, 300, 100))
	x.Add(mapping(t, "D", 1, 400, 200))
	return x
}

func TestValidate(t *testing.T) {
	x := paperFigure4Right(t)
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New("bad", 100)
	bad.Add(&Mapping{Offset: 50, Length: 100, Read: capFor(t, "a:1", ibp.CapRead)})
	if err := bad.Validate(); err == nil {
		t.Fatal("mapping beyond file end should fail validation")
	}
	bad2 := New("bad2", 100)
	bad2.Add(&Mapping{Offset: 0, Length: 100})
	if err := bad2.Validate(); err == nil {
		t.Fatal("mapping without read cap should fail validation")
	}
	bad3 := New("bad3", 100)
	bad3.Add(&Mapping{Offset: 0, Length: 0, Read: capFor(t, "a:1", ibp.CapRead)})
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero-length mapping should fail validation")
	}
	bad4 := New("bad4", 100)
	m := mapping(t, "A", 0, 0, 100)
	m.Function = FuncRSData // missing coding metadata
	bad4.Add(m)
	if err := bad4.Validate(); err == nil {
		t.Fatal("coded mapping without metadata should fail validation")
	}
}

func TestBoundariesMatchPaperExample(t *testing.T) {
	// Paper §2.3: the rightmost file in Figure 4 breaks into four extents
	// (0,199), (200-299), (300-399), (400-599).
	x := paperFigure4Right(t)
	got := x.Boundaries(0, 600)
	want := []Extent{{0, 200}, {200, 300}, {300, 400}, {400, 600}}
	if len(got) != len(want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extent %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBoundariesSubRange(t *testing.T) {
	x := paperFigure4Right(t)
	got := x.Boundaries(150, 350)
	want := []Extent{{150, 200}, {200, 300}, {300, 350}}
	if len(got) != len(want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("extent %d = %v", i, got[i])
		}
	}
	// Degenerate and clamped ranges.
	if x.Boundaries(400, 400) != nil {
		t.Fatal("empty range should have no extents")
	}
	if got := x.Boundaries(-50, 10_000); got[0].Start != 0 || got[len(got)-1].End != 600 {
		t.Fatalf("clamped range = %v", got)
	}
}

func TestCandidates(t *testing.T) {
	x := paperFigure4Right(t)
	// Extent [0,200): covered by A (replica 0) and B (replica 1).
	cands := x.Candidates(Extent{0, 200})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	// Extent [400,600): covered by both D mappings.
	cands = x.Candidates(Extent{400, 600})
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2", len(cands))
	}
	// A range crossing a boundary has fewer full coverers.
	cands = x.Candidates(Extent{150, 250})
	if len(cands) != 1 { // only B[0:300) covers it
		t.Fatalf("cross-boundary candidates = %d, want 1", len(cands))
	}
}

func TestReplicasAndReplicaMappings(t *testing.T) {
	x := paperFigure4Right(t)
	if x.Replicas() != 2 {
		t.Fatalf("replicas = %d", x.Replicas())
	}
	ms := x.ReplicaMappings(1)
	if len(ms) != 3 || ms[0].Depot != "B" || ms[2].Depot != "D" {
		t.Fatalf("replica 1 mappings: %v", ms)
	}
	// Sorted by offset.
	for i := 1; i < len(ms); i++ {
		if ms[i].Offset < ms[i-1].Offset {
			t.Fatal("replica mappings not sorted")
		}
	}
}

func TestClone(t *testing.T) {
	x := paperFigure4Right(t)
	c := x.Clone()
	c.Mappings[0].Depot = "MUTATED"
	c.Size = 1
	if x.Mappings[0].Depot == "MUTATED" || x.Size == 1 {
		t.Fatal("clone shares state with original")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	x := paperFigure4Right(t)
	x.Created = time.Date(2002, 1, 11, 15, 33, 48, 0, time.UTC)
	x.Comment = "five copies of the 1 MB file"
	x.Mappings[0].Expires = time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC)
	x.Mappings[0].Bandwidth = 0.73
	x.Mappings[0].Checksum = strings.Repeat("ab", 32)

	data, err := Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<exnode") || !strings.Contains(string(data), "ibp://") {
		t.Fatalf("unexpected XML:\n%s", data)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != x.Name || got.Size != x.Size || got.Comment != x.Comment {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !got.Created.Equal(x.Created) {
		t.Fatalf("created = %v", got.Created)
	}
	if len(got.Mappings) != len(x.Mappings) {
		t.Fatalf("mappings = %d", len(got.Mappings))
	}
	m0 := got.Mappings[0]
	if m0.Read != x.Mappings[0].Read || m0.Write != x.Mappings[0].Write || m0.Manage != x.Mappings[0].Manage {
		t.Fatal("capabilities did not round trip")
	}
	if !m0.Expires.Equal(x.Mappings[0].Expires) || m0.Bandwidth != 0.73 || m0.Checksum != x.Mappings[0].Checksum {
		t.Fatalf("metadata did not round trip: %+v", m0)
	}
}

func TestXMLRoundTripCoded(t *testing.T) {
	x := New("coded", 1000)
	for i := 0; i < 3; i++ {
		m := mapping(t, "A", 0, 0, 1000)
		m.Function = FuncRSData
		if i == 2 {
			m.Function = FuncRSParity
		}
		m.Group = "g0"
		m.BlockIndex = i
		m.DataBlocks = 2
		m.ParityBlocks = 1
		m.BlockSize = 500
		x.Add(m)
	}
	data, err := Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	groups := got.CodingGroups()
	if len(groups) != 1 || len(groups["g0"]) != 3 {
		t.Fatalf("coding groups = %v", groups)
	}
	for i, m := range groups["g0"] {
		if m.BlockIndex != i {
			t.Fatal("coding group not sorted by block index")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not xml",
		`<exnode version="99" name="x" size="1"></exnode>`,
		`<exnode version="1" name="x" size="10"><mapping offset="0" length="20"><read>bogus</read></mapping></exnode>`,
		`<exnode version="1" name="x" size="10" created="junk"></exnode>`,
	}
	for _, c := range cases {
		if _, err := Unmarshal([]byte(c)); err == nil {
			t.Fatalf("Unmarshal(%q) should fail", c)
		}
	}
}

func TestBoundariesPartitionProperty(t *testing.T) {
	// Property: for any set of mappings, Boundaries(0,size) partitions
	// [0,size) exactly: contiguous, non-overlapping, covering.
	type rawMapping struct{ Off, Len uint16 }
	f := func(raws []rawMapping, sizeRaw uint16) bool {
		size := int64(sizeRaw%5000) + 1
		x := New("p", size)
		key, _ := ibp.NewKey()
		cap := ibp.MintCap(secret, "a:1", key, ibp.CapRead)
		for _, r := range raws {
			off := int64(r.Off) % size
			length := int64(r.Len)%(size-off) + 1
			x.Add(&Mapping{Offset: off, Length: length, Read: cap})
		}
		exts := x.Boundaries(0, size)
		if len(exts) == 0 {
			return false
		}
		if exts[0].Start != 0 || exts[len(exts)-1].End != size {
			return false
		}
		for i := 1; i < len(exts); i++ {
			if exts[i].Start != exts[i-1].End {
				return false
			}
		}
		for _, e := range exts {
			if e.Len() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadIO(t *testing.T) {
	x := paperFigure4Right(t)
	var buf bytes.Buffer
	if err := Write(&buf, x); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != x.Name || len(got.Mappings) != len(x.Mappings) {
		t.Fatalf("io round trip: %+v", got)
	}
	if _, err := Read(badReader{}); err == nil {
		t.Fatal("reader error should propagate")
	}
}

type badReader struct{}

func (badReader) Read([]byte) (int, error) { return 0, errSentinel }

var errSentinel = errors.New("sentinel")

func TestOverlapsAndEncrypted(t *testing.T) {
	m := &Mapping{Offset: 100, Length: 50}
	cases := []struct {
		lo, hi int64
		want   bool
	}{
		{0, 100, false}, {0, 101, true}, {149, 200, true}, {150, 200, false}, {120, 130, true},
	}
	for _, c := range cases {
		if got := m.Overlaps(c.lo, c.hi); got != c.want {
			t.Fatalf("Overlaps(%d,%d) = %v", c.lo, c.hi, got)
		}
	}
	x := New("f", 10)
	if x.Encrypted() {
		t.Fatal("plain exnode reports encrypted")
	}
	x.Cipher = "aes256-ctr"
	if !x.Encrypted() {
		t.Fatal("cipher set but not encrypted")
	}
}

func TestXMLRoundTripRandomProperty(t *testing.T) {
	// Random valid exnodes must survive serialization exactly, and the
	// codec must agree with the encoding/xml oracle on each: the same
	// bytes out, the same ExNode back.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// One exNode in three carries text XML must escape or replace;
		// it round-trips up to the U+FFFD replacements.
		special := rng.Intn(3) == 0
		text := func(prefix string) string {
			if special {
				return prefix + randomText(rng)
			}
			return fmt.Sprintf("%s-%d", prefix, rng.Intn(1000))
		}
		size := int64(rng.Intn(100000) + 1)
		x := New(text("prop"), size)
		if rng.Intn(2) == 0 {
			x.Created = time.Unix(rng.Int63n(4_000_000_000), 0).UTC()
		}
		if rng.Intn(2) == 0 {
			x.Comment = text("comment")
		}
		if rng.Intn(3) == 0 {
			x.Cipher, x.IV = "aes256-ctr", strings.Repeat("0f", 16)
		}
		mint := func(i int) ibp.CapSet {
			key, err := ibp.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			return ibp.MintSet(secret, fmt.Sprintf("h%d:%d", i, 6714+i), key)
		}
		n := rng.Intn(12) + 1
		for i := 0; i < n; i++ {
			off := rng.Int63n(size)
			length := rng.Int63n(size-off) + 1
			set := mint(i)
			m := &Mapping{
				Offset: off, Length: length,
				Read: set.Read, Write: set.Write, Manage: set.Manage,
				// One replica index per mapping: random extents may
				// overlap, and overlap within a replica is invalid.
				Replica:   i,
				Depot:     text("D"),
				Bandwidth: float64(rng.Intn(1000)) / 10,
			}
			if rng.Intn(4) != 0 {
				m.Expires = time.Unix(rng.Int63n(4_000_000_000), 0).UTC()
			}
			if rng.Intn(2) == 0 {
				m.Checksum = strings.Repeat("ab", 32)
			}
			x.Add(m)
		}
		if rng.Intn(2) == 0 { // a Reed-Solomon group over the whole file
			k, p := rng.Intn(4)+1, rng.Intn(3)
			group := text("g")
			for b := 0; b < k+p; b++ {
				set := mint(n + b)
				fn := FuncRSData
				if b >= k {
					fn = FuncRSParity
				}
				x.Add(&Mapping{
					Offset: 0, Length: size, Function: fn, Group: group,
					BlockIndex: b, DataBlocks: k, ParityBlocks: p,
					BlockSize: (size + int64(k) - 1) / int64(k),
					Read:      set.Read, Write: set.Write, Manage: set.Manage,
				})
			}
		}
		blob, err := Marshal(x)
		oblob, oerr := oracleMarshal(x)
		if err != nil || oerr != nil || !bytes.Equal(blob, oblob) {
			t.Logf("seed %d: Marshal differs from encoding/xml (%v, %v):\n%s\n%s", seed, err, oerr, blob, oblob)
			return false
		}
		back, err := Unmarshal(blob)
		oback, oerr := oracleUnmarshal(blob)
		if err != nil || oerr != nil || !sameExNode(back, oback) {
			t.Logf("seed %d: Unmarshal disagrees with encoding/xml (%v, %v)", seed, err, oerr)
			return false
		}
		if special {
			again, _ := Marshal(back)
			return bytes.Equal(again, blob)
		}
		return sameExNode(back, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomText draws up to eight pieces of text that XML escapes, replaces
// or passes through: the specials, controls, a non-character, a stray
// byte, and multi-byte runes.
func randomText(rng *rand.Rand) string {
	pieces := []string{"a", "Z", "0", " ", "<", "&", ">", `"`, "'", "\t", "\n", "\r",
		"é", "\uFFFD", "\uFFFE", "\x01", "\xff", "😀", "]]>", "&amp;"}
	var b strings.Builder
	for n := rng.Intn(9); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}
