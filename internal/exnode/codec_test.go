package exnode

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ibp"
)

// sameExNode reports whether a and b are equal field for field; a NaN
// bandwidth equals a NaN with the same bits.
func sameExNode(a, b *ExNode) bool {
	if len(a.Mappings) != len(b.Mappings) {
		return false
	}
	for i := range a.Mappings {
		ma, mb := *a.Mappings[i], *b.Mappings[i]
		if math.Float64bits(ma.Bandwidth) != math.Float64bits(mb.Bandwidth) {
			return false
		}
		ma.Bandwidth, mb.Bandwidth = 0, 0
		if !reflect.DeepEqual(ma, mb) {
			return false
		}
	}
	ha, hb := *a, *b
	ha.Mappings, hb.Mappings = nil, nil
	return reflect.DeepEqual(ha, hb)
}

// checkAgainstOracle fails t unless the codec and the encoding/xml oracle
// agree on data: whatever Unmarshal accepts, the oracle accepts with an
// equal ExNode, which both encoders write the same; and whatever the
// oracle accepts and writes back unchanged, Unmarshal accepts.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := Unmarshal(data)
	want, oerr := oracleUnmarshal(data)
	if err == nil {
		if oerr != nil {
			t.Fatalf("Unmarshal accepted what encoding/xml rejects (%v):\n%q", oerr, data)
		}
		if !sameExNode(got, want) {
			t.Fatalf("Unmarshal and encoding/xml disagree on\n%q:\n got %+v\nwant %+v", data, got, want)
		}
		blob, _ := Marshal(got)
		if oblob, _ := oracleMarshal(got); !bytes.Equal(blob, oblob) {
			t.Fatalf("Marshal differs from encoding/xml:\n got %q\nwant %q", blob, oblob)
		}
	}
	if oerr == nil && err != nil {
		if oblob, _ := oracleMarshal(want); bytes.Equal(oblob, data) {
			t.Fatalf("Unmarshal rejected encoding/xml's own output (%v):\n%q", err, data)
		}
	}
}

// FuzzCodecAgreesWithEncodingXML binds the hand codec to the encoding/xml
// oracle on arbitrary bytes.
func FuzzCodecAgreesWithEncodingXML(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.xml"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("golden files: %v", err)
	}
	for _, path := range golden {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// FuzzUnmarshal's seeds.
	key, _ := ibp.NewKey()
	set := ibp.MintSet([]byte("s"), "h:1", key)
	seed := New("seed", 100)
	seed.Add(&Mapping{Offset: 0, Length: 100, Read: set.Read, Write: set.Write, Manage: set.Manage})
	dup := New("dup", 100)
	dup.Add(&Mapping{Offset: 0, Length: 100, Read: set.Read})
	dup.Add(&Mapping{Offset: 0, Length: 100, Read: set.Read})
	wrap := New("wrap", 100)
	wrap.Add(&Mapping{Offset: 1<<63 - 10, Length: 100, Read: set.Read})
	neg := New("neg", 100)
	neg.Add(&Mapping{Offset: -5, Length: 10, Read: set.Read})
	for _, x := range []*ExNode{seed, dup, wrap, neg} {
		blob, _ := Marshal(x)
		f.Add(blob)
	}
	f.Add([]byte("<exnode"))
	f.Add([]byte(`<exnode version="1" name="x" size="-3"></exnode>`))
	f.Add([]byte{})
	// The subset's edges: references, unknown fields, and markup outside
	// it.
	f.Add([]byte(`<exnode size="5" name="a&#x3c;&amp;&#62;" x="1"><junk a="b">t</junk><comment/></exnode>`))
	f.Add([]byte(`<exnode><!-- c --></exnode>`))
	f.Add([]byte(`<exnode name='x'></exnode>`))
	f.Fuzz(checkAgainstOracle)
}

// TestCodecAgreesOnHandWrittenXML runs the oracle check over documents a
// person editing an .xnd file might write, and pins which the subset
// accepts.
func TestCodecAgreesOnHandWrittenXML(t *testing.T) {
	key := "0123456789abcdef0123456789abcdef"
	read := ibp.MintCap(secret, "h:1", key, ibp.CapRead).String()
	cases := []struct {
		doc    string
		accept bool
	}{
		{`<exnode version="1" name="x" size="10"/>`, false},
		{"\n\t<exnode size=\"10\"   version=\"1\"\r\n>\r\n</exnode>\n\n", true},
		{`<exnode size="10"><mapping length="10" offset="0" replica="0" extra="y"><read>` + read + `</read><note kind="k">free text</note><read/></mapping></exnode>`, false},
		{`<exnode size="10"><mapping length="10" offset="0"><note/><read>` + read + `</read></mapping></exnode>`, false},
		{`<exnode size="10"><mapping length="10" offset="0"><note lang="en">x</note><read>` + read + `</read></mapping></exnode>`, true},
		{`<exnode name="&lt;&#65;&#x42;&quot;&apos;" size="0"></exnode>`, true},
		{`<exnode name="a" size="0"></exnode >`, false},
		{`<exnode name="a" size="0"><!-- hand edit --></exnode>`, false},
		{`<exnode name="a" size="0"><comment><![CDATA[x]]></comment></exnode>`, false},
		{`<!DOCTYPE exnode><exnode size="0"></exnode>`, false},
		{`<?xml-stylesheet href="s"?><exnode size="0"></exnode>`, false},
		{`<exnode name='a' size="0"></exnode>`, false},
		{`<exnode size="0"><junk><nested/></junk></exnode>`, false},
		{`<exnode size="0"></exnode>trailing`, false},
		{`<exnode size="0"></exnode><exnode size="0"></exnode>`, false},
		{`<x:exnode size="0"></x:exnode>`, false},
		{`<exnode x:size="5" size="0"></exnode>`, false},
		{`<exnode name="a>b" size="0"></exnode>`, false},
		{`<exnode name="&#xD800;" size="0"></exnode>`, false},
		{`<exnode name="&#0;" size="0"></exnode>`, false},
		{`<exnode name="&nbsp;" size="0"></exnode>`, false},
		{`<exnode name="&#65" size="0"></exnode>`, false},
		{`<exnode size=" 5"></exnode>`, false},
		{`<exnode version="2" size="0"></exnode>`, false},
	}
	for _, c := range cases {
		checkAgainstOracle(t, []byte(c.doc))
		if _, err := Unmarshal([]byte(c.doc)); (err == nil) != c.accept {
			t.Errorf("Unmarshal(%q): err = %v, want accept = %v", c.doc, err, c.accept)
		}
	}
}
