package depot

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"testing/quick"
)

// netDial is a test helper shared with depot_test.go.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// backends returns one fresh backend of each kind; bundleCap is the pack
// backend's (0 for the default).
func backends(t *testing.T, bundleCap int64) map[string]Backend {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewPackBackend(t.TempDir(), bundleCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	return map[string]Backend{
		"mem":  NewMemBackend(),
		"file": fb,
		"pack": pb,
	}
}

func TestBackendAppendRead(t *testing.T) {
	for name, b := range backends(t, 0) {
		t.Run(name, func(t *testing.T) {
			h, err := b.Create("aaaaaaaaaaaaaaaa", 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if h.Len() != 0 {
				t.Fatal("fresh handle should be empty")
			}
			if _, err := h.Append([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			n, err := h.Append([]byte("world"))
			if err != nil {
				t.Fatal(err)
			}
			if n != 11 || h.Len() != 11 {
				t.Fatalf("len = %d / %d, want 11", n, h.Len())
			}
			buf := make([]byte, 5)
			if err := h.ReadAt(buf, 6); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("read %q", buf)
			}
			// Reads past the end fail.
			if err := h.ReadAt(make([]byte, 2), 10); err == nil {
				t.Fatal("read past end should fail")
			}
			if err := h.ReadAt(make([]byte, 1), -1); err == nil {
				t.Fatal("negative offset should fail")
			}
		})
	}
}

func TestBackendCapacity(t *testing.T) {
	for name, b := range backends(t, 0) {
		t.Run(name, func(t *testing.T) {
			h, err := b.Create("bbbbbbbbbbbbbbbb", 4)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if _, err := h.Append([]byte("12345")); err != ErrAllocFull {
				t.Fatalf("got %v, want ErrAllocFull", err)
			}
			if _, err := h.Append([]byte("1234")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackendDuplicateAndRemove(t *testing.T) {
	for name, b := range backends(t, 0) {
		t.Run(name, func(t *testing.T) {
			h, err := b.Create("cccccccccccccccc", 10)
			if err != nil {
				t.Fatal(err)
			}
			h.Close()
			if _, err := b.Create("cccccccccccccccc", 10); err == nil {
				t.Fatal("duplicate create should fail")
			}
			if err := b.Remove("cccccccccccccccc"); err != nil {
				t.Fatal(err)
			}
			if err := b.Remove("cccccccccccccccc"); err == nil {
				t.Fatal("double remove should fail")
			}
			// Key is reusable after removal.
			h2, err := b.Create("cccccccccccccccc", 10)
			if err != nil {
				t.Fatal(err)
			}
			h2.Close()
		})
	}
}

func TestBackendAppendReadProperty(t *testing.T) {
	// Property: any sequence of appends reads back as their concatenation,
	// identically on every backend, and Lend agrees with ReadAt on every
	// range.
	bs := backends(t, 0)
	i := 0
	f := func(chunks [][]byte) bool {
		i++
		key := keyFor(i)
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		if len(want) > 1<<16 {
			return true
		}
		for name, b := range bs {
			h, err := b.Create(key, 1<<16)
			if err != nil {
				return false
			}
			for _, c := range chunks {
				if _, err := h.Append(c); err != nil {
					return false
				}
			}
			if h.Len() != int64(len(want)) {
				return false
			}
			got := make([]byte, len(want))
			if len(want) > 0 {
				if err := h.ReadAt(got, 0); err != nil {
					return false
				}
			}
			if !bytes.Equal(got, want) {
				return false
			}
			if err := lendAgrees(h, want); err != nil {
				t.Errorf("%s: %v", name, err)
				return false
			}
			h.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// lendAgrees checks that h lends want[off:off+n] for every range of a
// short array (a sample of them for a long one), that ReadAt reads the
// same, and that a negative or out-of-range Lend fails.
func lendAgrees(h Handle, want []byte) error {
	size := int64(len(want))
	step := size/16 + 1
	for off := int64(0); off <= size; off += step {
		for n := int64(0); off+n <= size; n += step {
			seg, lease, err := h.Lend(off, n)
			if err != nil {
				return fmt.Errorf("Lend(%d, %d): %v", off, n, err)
			}
			ok := bytes.Equal(seg, want[off:off+n])
			lease.Release()
			if !ok {
				return fmt.Errorf("Lend(%d, %d) disagrees with the appended bytes", off, n)
			}
			got := make([]byte, n)
			if err := h.ReadAt(got, off); err != nil || !bytes.Equal(got, want[off:off+n]) {
				return fmt.Errorf("ReadAt(%d, %d) = %v, disagrees with Lend", off, n, err)
			}
		}
	}
	for _, r := range [][2]int64{{0, size + 1}, {size, 1}, {-1, 1}, {0, -1}, {1, 1<<63 - 1}} {
		if _, _, err := h.Lend(r[0], r[1]); err == nil {
			return fmt.Errorf("Lend(%d, %d) beyond %d bytes succeeded", r[0], r[1], size)
		}
	}
	return nil
}

func keyFor(i int) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 32)
	for j := range b {
		b[j] = hexdigits[(i>>(j%4))&0xf]
	}
	return string(b)
}
