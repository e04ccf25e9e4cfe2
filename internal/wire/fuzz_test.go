package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// FuzzUnquote hardens the token unescaper: no panic, and Quote∘Unquote is
// the identity on whatever Unquote accepts... in the other direction:
// anything Quote produces must Unquote back.
func FuzzUnquote(f *testing.F) {
	f.Add("%20")
	f.Add("%")
	f.Add("%zz")
	f.Add("plain")
	f.Add("%00")
	f.Fuzz(func(t *testing.T, s string) {
		// Unquote must not panic on anything.
		_, _ = Unquote(s)
		// Quote output must always be parseable and round-trip.
		q := Quote(s)
		back, err := Unquote(q)
		if err != nil {
			t.Fatalf("Quote produced unparseable token %q from %q", q, s)
		}
		if back != s {
			t.Fatalf("round trip %q -> %q -> %q", s, q, back)
		}
	})
}

// memConn is a read-only net.Conn over a fixed byte slice: reads drain the
// slice then report EOF, writes are discarded. It lets the blob fuzzers feed
// arbitrary peer bytes without goroutines or real sockets.
type memConn struct{ r *bytes.Reader }

func (m *memConn) Read(p []byte) (int, error)       { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { return len(p), nil }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzReadBlob drives ReadBlob with arbitrary announced lengths — including
// giant and negative ones a corrupt or hostile header could carry — against
// arbitrary available payload. Invariants: lengths outside [0, MaxBlobLen]
// are rejected as ErrBlobTooLarge with no allocation attempt; in-range
// lengths either return exactly the announced prefix of the payload or a
// read error; nothing panics.
func FuzzReadBlob(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(5), []byte("hello"))
	f.Add(int64(10), []byte("short"))           // announced > available
	f.Add(int64(-1), []byte("x"))               // negative length
	f.Add(int64(MaxBlobLen)+1, []byte("x"))     // just over the cap
	f.Add(int64(1)<<62, []byte("x"))            // absurd length
	f.Add(int64(firstBlobAlloc)+1, []byte("x")) // staged path, starved
	f.Add(int64(-1)<<62, []byte{})              // absurd negative
	f.Fuzz(func(t *testing.T, n int64, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		p, err := c.ReadBlob(n)
		if n < 0 || n > MaxBlobLen {
			if !errors.Is(err, ErrBlobTooLarge) {
				t.Fatalf("ReadBlob(%d) = %v, want ErrBlobTooLarge", n, err)
			}
			if p != nil {
				t.Fatalf("ReadBlob(%d) returned a buffer with its error", n)
			}
			return
		}
		if err != nil {
			if int64(len(data)) >= n {
				t.Fatalf("ReadBlob(%d) failed with %d bytes available: %v", n, len(data), err)
			}
			return
		}
		if int64(len(p)) != n {
			t.Fatalf("ReadBlob(%d) returned %d bytes", n, len(p))
		}
		if !bytes.Equal(p, data[:n]) {
			t.Fatalf("ReadBlob(%d) payload mismatch", n)
		}
	})
}

// FuzzReadBlobPooled mirrors FuzzReadBlob for the pooled read path, and
// additionally releases successful reads so pool reuse churns under the
// fuzzer.
func FuzzReadBlobPooled(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(3), []byte("abcdef"))
	f.Add(int64(MaxBlobLen)+1, []byte{})
	f.Add(int64(1)<<40, []byte("x"))
	f.Fuzz(func(t *testing.T, n int64, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		p, err := c.ReadBlobPooled(n)
		if n < 0 || n > MaxBlobLen {
			if !errors.Is(err, ErrBlobTooLarge) {
				t.Fatalf("ReadBlobPooled(%d) = %v, want ErrBlobTooLarge", n, err)
			}
			return
		}
		if err != nil {
			if int64(len(data)) >= n {
				t.Fatalf("ReadBlobPooled(%d) failed with %d bytes available: %v", n, len(data), err)
			}
			return
		}
		if int64(len(p)) != n || !bytes.Equal(p, data[:n]) {
			t.Fatalf("ReadBlobPooled(%d) bad payload", n)
		}
		bufpool.Put(p)
	})
}

// FuzzReadLine ensures arbitrary peer bytes cannot panic the line reader,
// and that over-long lines surface as ErrLineTooLong rather than unbounded
// buffering.
func FuzzReadLine(f *testing.F) {
	f.Add([]byte("OK 1 2 3\n"))
	f.Add([]byte("ERR BAD_REQUEST %20\n"))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add(bytes.Repeat([]byte{'a'}, 100*1024))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(&memConn{r: bytes.NewReader(data)})
		for i := 0; i < 4; i++ {
			_, err := c.ReadLine()
			if err == io.EOF || err == io.ErrUnexpectedEOF || err == ErrLineTooLong {
				return
			}
		}
	})
}
