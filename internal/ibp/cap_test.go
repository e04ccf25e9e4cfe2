package ibp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var secret = []byte("cap-test-secret")

func TestMintParseRoundTrip(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []CapType{CapRead, CapWrite, CapManage} {
		c := MintCap(secret, "depot.utk.edu:6714", key, typ)
		parsed, err := ParseCap(c.String())
		if err != nil {
			t.Fatalf("ParseCap(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Fatalf("round trip: %+v != %+v", parsed, c)
		}
		if !VerifyCap(secret, parsed) {
			t.Fatal("minted cap should verify")
		}
	}
}

func TestVerifyRejectsForgery(t *testing.T) {
	key, _ := NewKey()
	c := MintCap(secret, "h:1", key, CapRead)

	bad := c
	bad.Tag = strings.Repeat("0", TagLen*2)
	if VerifyCap(secret, bad) {
		t.Fatal("zero tag should not verify")
	}

	// A READ tag is not valid for WRITE: possession of one capability must
	// not grant the others (paper §2.1).
	cross := c
	cross.Type = CapWrite
	if VerifyCap(secret, cross) {
		t.Fatal("cap type crossover should not verify")
	}

	// Different secret, different depot.
	if VerifyCap([]byte("other"), c) {
		t.Fatal("cap should not verify under another depot's secret")
	}

	// Invalid type never verifies.
	weird := c
	weird.Type = CapType("ROOT")
	if VerifyCap(secret, weird) {
		t.Fatal("unknown type should not verify")
	}
}

func TestMintSet(t *testing.T) {
	key, _ := NewKey()
	set := MintSet(secret, "h:1", key)
	if set.Read.Type != CapRead || set.Write.Type != CapWrite || set.Manage.Type != CapManage {
		t.Fatalf("set types wrong: %+v", set)
	}
	for _, c := range []Cap{set.Read, set.Write, set.Manage} {
		if c.Key != key || c.Addr != "h:1" || !VerifyCap(secret, c) {
			t.Fatalf("bad cap in set: %+v", c)
		}
	}
	// The three tags must all differ.
	if set.Read.Tag == set.Write.Tag || set.Write.Tag == set.Manage.Tag || set.Read.Tag == set.Manage.Tag {
		t.Fatal("capability tags should be distinct per type")
	}
}

func TestParseCapErrors(t *testing.T) {
	key, _ := NewKey()
	good := MintCap(secret, "h:1", key, CapRead).String()
	bad := []string{
		"",
		"http://h:1/k/READ#t",
		strings.Replace(good, "#", "!", 1),
		strings.Replace(good, "READ", "EXECUTE", 1),
		"ibp://h:1/shortkey/READ#" + strings.Repeat("ab", TagLen),
		"ibp://noport/" + key + "/READ#" + strings.Repeat("ab", TagLen),
		"ibp://h:1/" + key + "/READ#zz",
		"ibp://h:1/" + key + "/READ/extra#" + strings.Repeat("ab", TagLen),
	}
	for _, s := range bad {
		if _, err := ParseCap(s); err == nil {
			t.Fatalf("ParseCap(%q) should fail", s)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	key, _ := NewKey()
	c := MintCap(secret, "h:1", key, CapManage)
	got, err := ParseToken("h:1", c.Token())
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("token round trip: %+v != %+v", got, c)
	}
}

func TestParseTokenMatchesParseCapProperty(t *testing.T) {
	// ParseToken(addr, tok) is ParseCap of the composed string: the same
	// capability, or an ErrBadCap with the same message, including for
	// addresses whose '/' or '#' moves where the composed string splits.
	key, _ := NewKey()
	c := MintCap(secret, "h:1", key, CapWrite)
	addrs := []string{"h:1", "depot.example.org:6714", "", "noport", "h:1/" + key, "h#1:2", "a/b/c:1", "h:1#"}
	toks := []string{c.Token(), "WRITE#" + c.Tag, key + "/WRITE", key + "/WRITE/x#" + c.Tag,
		key + "/EXEC#" + c.Tag, strings.ToUpper(c.Token()), "#", "", "/#", c.Token() + "#x"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addr, tok := addrs[rng.Intn(len(addrs))], toks[rng.Intn(len(toks))]
		if rng.Intn(4) == 0 { // flip one byte
			b := []byte(tok + "x")
			b[rng.Intn(len(b))] = "/#:aZ0"[rng.Intn(6)]
			tok = string(b)
		}
		got, err := ParseToken(addr, tok)
		want, werr := ParseCap("ibp://" + addr + "/" + tok)
		if err != nil || werr != nil {
			return err != nil && werr != nil && errors.Is(err, ErrBadCap) && err.Error() == werr.Error()
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseCap(b *testing.B) {
	key, _ := NewKey()
	s := MintCap(secret, "depot.example.org:6714", key, CapRead).String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseCap(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseToken(b *testing.B) {
	key, _ := NewKey()
	tok := MintCap(secret, "depot.example.org:6714", key, CapRead).Token()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseToken("depot.example.org:6714", tok); err != nil {
			b.Fatal(err)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		k, err := NewKey()
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatal("duplicate key from NewKey")
		}
		seen[k] = true
		if len(k) != KeyLen*2 {
			t.Fatalf("key length %d", len(k))
		}
	}
}

func TestCapStringNeverContainsWhitespaceProperty(t *testing.T) {
	// Capabilities travel as single wire tokens; they must never contain
	// whitespace regardless of inputs.
	f := func(addrSuffix uint16) bool {
		key, err := NewKey()
		if err != nil {
			return false
		}
		c := MintCap(secret, "host:1", key, CapRead)
		_ = addrSuffix
		return !strings.ContainsAny(c.String(), " \t\n\r")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIsZero(t *testing.T) {
	var c Cap
	if !c.IsZero() {
		t.Fatal("zero cap should report IsZero")
	}
	key, _ := NewKey()
	if MintCap(secret, "h:1", key, CapRead).IsZero() {
		t.Fatal("minted cap should not be zero")
	}
}
