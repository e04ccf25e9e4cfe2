package sealing

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testKey() []byte { return DeriveKey("correct horse battery staple") }

func TestSealUnsealRoundTrip(t *testing.T) {
	key := testKey()
	iv, err := NewIV()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("network storage "), 1000)
	sealed, err := Seal(key, iv, data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sealed, data) {
		t.Fatal("ciphertext equals plaintext")
	}
	got, err := UnsealAt(key, iv, sealed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnsealAtArbitraryOffsets(t *testing.T) {
	key := testKey()
	iv, _ := NewIV()
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	sealed, err := Seal(key, iv, data)
	if err != nil {
		t.Fatal(err)
	}
	// Every interesting offset class: block-aligned, mid-block, crossing
	// many blocks, single byte, empty.
	cases := []struct{ off, n int64 }{
		{0, 16}, {16, 16}, {5, 3}, {15, 2}, {16, 1}, {17, 100},
		{4096, 4096}, {9999, 1}, {1234, 0},
	}
	for _, c := range cases {
		got, err := UnsealAt(key, iv, sealed[c.off:c.off+c.n], c.off)
		if err != nil {
			t.Fatalf("offset %d: %v", c.off, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("offset %d len %d: mismatch", c.off, c.n)
		}
	}
}

func TestUnsealRangeProperty(t *testing.T) {
	key := testKey()
	iv, _ := NewIV()
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	sealed, err := Seal(key, iv, data)
	if err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw) % int64(len(data))
		n := int64(lenRaw) % (int64(len(data)) - off)
		got, err := UnsealAt(key, iv, sealed[off:off+n], off)
		return err == nil && bytes.Equal(got, data[off:off+n])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrongKeyProducesGarbage(t *testing.T) {
	iv, _ := NewIV()
	data := bytes.Repeat([]byte("secret"), 100)
	sealed, err := Seal(testKey(), iv, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnsealAt(DeriveKey("wrong"), iv, sealed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, data) {
		t.Fatal("wrong key decrypted successfully")
	}
}

func TestValidation(t *testing.T) {
	iv, _ := NewIV()
	if _, err := Seal([]byte("short"), iv, []byte("x")); err != ErrBadKey {
		t.Fatalf("short key error = %v", err)
	}
	if _, err := Seal(testKey(), []byte("short"), []byte("x")); err == nil {
		t.Fatal("short iv should fail")
	}
	if _, err := UnsealAt(testKey(), iv, []byte("x"), -1); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func TestIVEncodeDecode(t *testing.T) {
	iv, _ := NewIV()
	got, err := DecodeIV(EncodeIV(iv))
	if err != nil || !bytes.Equal(got, iv) {
		t.Fatalf("iv round trip: %v", err)
	}
	if _, err := DecodeIV("zz"); err == nil {
		t.Fatal("bad iv should fail")
	}
	if _, err := DecodeIV("abcd"); err == nil {
		t.Fatal("short iv should fail")
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	if !bytes.Equal(DeriveKey("a"), DeriveKey("a")) {
		t.Fatal("DeriveKey not deterministic")
	}
	if bytes.Equal(DeriveKey("a"), DeriveKey("b")) {
		t.Fatal("different passphrases collide")
	}
	if len(DeriveKey("a")) != KeySize {
		t.Fatal("bad key size")
	}
}

func TestCounterCarry(t *testing.T) {
	// An IV whose low 64 bits are near overflow must carry into the high
	// half exactly like crypto/cipher's own increment. Verify by sealing
	// with such an IV and range-decrypting across the carry boundary.
	key := testKey()
	iv := make([]byte, IVSize)
	for i := 8; i < 16; i++ {
		iv[i] = 0xff // low counter = 2^64 - 1
	}
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	sealed, err := Seal(key, iv, data)
	if err != nil {
		t.Fatal(err)
	}
	// Decrypt the second block (offset 16) independently: its counter is
	// iv+1, which wraps the low half to zero with a carry.
	got, err := UnsealAt(key, iv, sealed[16:32], 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[16:32]) {
		t.Fatal("carry boundary mismatch")
	}
}

// TestXORKeyStreamAtInPlace: sealing and unsealing a buffer where it lies
// gives what the allocating Seal and UnsealAt give, at any offset.
func TestXORKeyStreamAtInPlace(t *testing.T) {
	key := testKey()
	iv, _ := NewIV()
	data := bytes.Repeat([]byte("transform bytes where they lie "), 300)
	want, err := Seal(key, iv, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(data)
	if err := XORKeyStreamAt(buf, buf, key, iv, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("in-place seal differs from Seal")
	}
	for _, off := range []int64{0, 1, 15, 16, 17, 4099} {
		part := bytes.Clone(buf[off:])
		if err := XORKeyStreamAt(part, part, key, iv, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(part, data[off:]) {
			t.Fatalf("in-place unseal at offset %d mismatch", off)
		}
	}
}
