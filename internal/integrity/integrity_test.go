package integrity

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestSumKnownVector(t *testing.T) {
	// SHA-256 of the empty string.
	if got := Sum(nil); got != "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" {
		t.Fatalf("Sum(nil) = %s", got)
	}
}

func TestVerify(t *testing.T) {
	data := []byte("network storage stack")
	sum := Sum(data)
	if err := Verify(data, sum); err != nil {
		t.Fatal(err)
	}
	// Optional checksum: empty recorded digest always verifies.
	if err := Verify(data, ""); err != nil {
		t.Fatal(err)
	}
	// Corruption detected.
	corrupted := append([]byte(nil), data...)
	corrupted[0] ^= 1
	err := Verify(corrupted, sum)
	var mm *ErrMismatch
	if !errors.As(err, &mm) {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
	if mm.Want != sum {
		t.Fatalf("mismatch detail: %+v", mm)
	}
}

func TestVerifyRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return Verify(data, Sum(data)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetectedProperty(t *testing.T) {
	f := func(data []byte, flipAt uint16) bool {
		if len(data) == 0 {
			return true
		}
		sum := Sum(data)
		c := append([]byte(nil), data...)
		c[int(flipAt)%len(c)] ^= 0x40
		return Verify(c, sum) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
