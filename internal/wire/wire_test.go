package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// pipe returns two framed ends of an in-memory connection.
func pipe(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestLineRoundTrip(t *testing.T) {
	c1, c2 := pipe(t)
	errc := make(chan error, 1)
	go func() { errc <- c1.WriteLine("ALLOCATE", "1024", "3600", "byte-array") }()
	toks, err := c2.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := []string{"ALLOCATE", "1024", "3600", "byte-array"}
	if len(toks) != len(want) {
		t.Fatalf("got %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestWriteLineRejectsWhitespaceTokens(t *testing.T) {
	c1, _ := pipe(t)
	if err := c1.WriteLine("HAS SPACE"); err == nil {
		t.Fatal("expected error for token with space")
	}
	if err := c1.WriteLine("has\nnewline"); err == nil {
		t.Fatal("expected error for token with newline")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	c1, c2 := pipe(t)
	payload := bytes.Repeat([]byte{0xab, 0xcd}, 5000)
	errc := make(chan error, 1)
	go func() {
		if err := c1.WriteLine("STORE", Itoa(int64(len(payload)))); err != nil {
			errc <- err
			return
		}
		errc <- c1.WriteBlob(payload)
	}()
	toks, err := c2.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	n, err := ParseInt("len", toks[1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.ReadBlob(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestReadBlobRejectsBadLength(t *testing.T) {
	_, c2 := pipe(t)
	if _, err := c2.ReadBlob(-1); err == nil {
		t.Fatal("negative length should fail")
	}
	if _, err := c2.ReadBlob(MaxBlobLen + 1); err == nil {
		t.Fatal("oversized length should fail")
	}
}

func TestReadLineEOF(t *testing.T) {
	a, b := net.Pipe()
	c2 := NewConn(b)
	a.Close()
	if _, err := c2.ReadLine(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestQuoteUnquoteRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		q := Quote(s)
		if strings.ContainsAny(q, " \n\r\t") {
			return false
		}
		got, err := Unquote(q)
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteEmpty(t *testing.T) {
	got, err := Unquote(Quote(""))
	if err != nil || got != "" {
		t.Fatalf("empty round trip = %q, %v", got, err)
	}
}

func TestUnquoteErrors(t *testing.T) {
	for _, bad := range []string{"%", "%1", "%zz"} {
		if _, err := Unquote(bad); err == nil {
			t.Fatalf("Unquote(%q) should fail", bad)
		}
	}
}

func TestStatusOK(t *testing.T) {
	c1, c2 := pipe(t)
	go c1.WriteOK("cap1", "cap2")
	toks, err := c2.ReadStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0] != "cap1" || toks[1] != "cap2" {
		t.Fatalf("got %v", toks)
	}
}

func TestStatusErr(t *testing.T) {
	c1, c2 := pipe(t)
	go c1.WriteErr(CodeNotFound, "no allocation %q", "abc def")
	_, err := c2.ReadStatus()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("got %T %v, want RemoteError", err, err)
	}
	if re.Code != CodeNotFound {
		t.Fatalf("code = %q", re.Code)
	}
	if !strings.Contains(re.Message, "abc def") {
		t.Fatalf("message %q lost quoting", re.Message)
	}
	if !IsRemote(err, CodeNotFound) {
		t.Fatal("IsRemote should match")
	}
	if IsRemote(err, CodeDenied) {
		t.Fatal("IsRemote should not match other codes")
	}
}

func TestStatusMalformed(t *testing.T) {
	c1, c2 := pipe(t)
	go c1.WriteLine("WHAT")
	if _, err := c2.ReadStatus(); err == nil {
		t.Fatal("malformed status should fail")
	}
}

func TestDeadline(t *testing.T) {
	_, c2 := pipe(t)
	if err := c2.SetDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadLine(); err == nil {
		t.Fatal("read should time out")
	}
}

func TestParseInt(t *testing.T) {
	if v, err := ParseInt("x", "12345"); err != nil || v != 12345 {
		t.Fatalf("ParseInt = %v, %v", v, err)
	}
	if _, err := ParseInt("x", "abc"); err == nil {
		t.Fatal("ParseInt(abc) should fail")
	}
	if Itoa(-7) != "-7" {
		t.Fatal("Itoa")
	}
}

func TestLineTooLong(t *testing.T) {
	c1, c2 := pipe(t)
	go func() {
		// A single token longer than the read buffer.
		big := strings.Repeat("a", 70*1024)
		raw := append([]byte(big), '\n')
		c1.WriteBlob(raw)
	}()
	if _, err := c2.ReadLine(); err != ErrLineTooLong {
		t.Fatalf("got %v, want ErrLineTooLong", err)
	}
}

// TestLongestLineFits: a line of MaxLineLen bytes, newline included, reads
// back whole, so the framing buffer holds the longest legal line.
func TestLongestLineFits(t *testing.T) {
	c1, c2 := pipe(t)
	tok := strings.Repeat("a", MaxLineLen-1)
	go c1.WriteLine(tok)
	toks, err := c2.ReadLine()
	if err != nil || len(toks) != 1 || toks[0] != tok {
		t.Fatalf("got %d tokens, %v; want the one %d-byte token", len(toks), err, len(tok))
	}
}

func TestEmptyLineYieldsNoTokens(t *testing.T) {
	c1, c2 := pipe(t)
	go c1.WriteLine()
	toks, err := c2.ReadLine()
	if err != nil || len(toks) != 0 {
		t.Fatalf("got %v, %v", toks, err)
	}
}
