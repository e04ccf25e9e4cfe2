package depot

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ibp"
)

// TestPooledBufferAliasing hammers one depot with concurrent STOREs and
// LOADs over real connections. Every allocation holds a distinctive byte
// pattern, so if a pooled buffer were ever recycled while a LOAD response
// (or a pending Append) still referenced it, some reader would observe
// another operation's bytes — and the race detector would flag the
// concurrent access. Run under -race; a pass proves the pool's ownership
// rules hold on the depot hot path.
func TestPooledBufferAliasing(t *testing.T) {
	d, c := newDepot(t, Config{})
	addr := d.Addr()

	const (
		nAllocs   = 8
		allocSize = 64 << 10
		workers   = 8
		iters     = 40
	)

	pattern := func(i int) []byte {
		return bytes.Repeat([]byte{byte(0x11 * (i + 1))}, allocSize)
	}
	sets := make([]ibp.CapSet, nAllocs)
	for i := range sets {
		set, err := c.Allocate(addr, allocSize, time.Hour, ibp.Hard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Store(set.Write, pattern(i)); err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Each worker also grows its own private allocation so appends
			// run concurrently with the shared loads.
			mine, err := c.Allocate(addr, allocSize, time.Hour, ibp.Hard)
			if err != nil {
				errs <- err
				return
			}
			own := byte(0xC0 + seed)
			written := 0
			for it := 0; it < iters; it++ {
				i := rng.Intn(nAllocs)
				off := rng.Intn(allocSize - 1)
				n := 1 + rng.Intn(allocSize-off)
				got, err := c.Load(sets[i].Read, int64(off), int64(n))
				if err != nil {
					errs <- fmt.Errorf("load alloc %d: %w", i, err)
					return
				}
				want := byte(0x11 * (i + 1))
				for j, b := range got {
					if b != want {
						errs <- fmt.Errorf("alloc %d byte %d: got %#x, want %#x (pooled buffer aliased)", i, off+j, b, want)
						return
					}
				}
				chunk := bytes.Repeat([]byte{own}, 512)
				if written+len(chunk) <= allocSize {
					if _, err := c.Store(mine.Write, chunk); err != nil {
						errs <- err
						return
					}
					written += len(chunk)
				} else if written > 0 {
					got, err := c.Load(mine.Read, 0, int64(written))
					if err != nil {
						errs <- err
						return
					}
					for j, b := range got {
						if b != own {
							errs <- fmt.Errorf("private alloc byte %d: got %#x, want %#x", j, b, own)
							return
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPooledBufferAliasingFileBackend repeats the concurrent hammer on the
// file backend, whose LOAD sends a pooled buffer the segment is pread
// into.
func TestPooledBufferAliasingFileBackend(t *testing.T) {
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, c := newDepot(t, Config{Backend: fb})
	addr := d.Addr()

	const allocSize = 32 << 10
	sets := make([]ibp.CapSet, 4)
	for i := range sets {
		set, err := c.Allocate(addr, allocSize, time.Hour, ibp.Hard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Store(set.Write, bytes.Repeat([]byte{byte(0x21 * (i + 1))}, allocSize)); err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			want := byte(0x21 * (w + 1))
			for it := 0; it < 20; it++ {
				got, err := c.Load(sets[w].Read, 0, allocSize)
				if err != nil {
					errs <- err
					return
				}
				for j, b := range got {
					if b != want {
						errs <- fmt.Errorf("alloc %d byte %d: got %#x, want %#x", w, j, b, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMemHandleLendSegmentConcurrentAppend exercises the zero-copy LOAD
// invariant directly: a lent segment is a pinned view of the storage, so
// appends arriving while it is out, in place or into a grown buffer, must
// never disturb it. The race detector guards the locking discipline; the
// byte check guards the pin.
func TestMemHandleLendSegmentConcurrentAppend(t *testing.T) {
	h := &memHandle{max: 1 << 20}
	if _, err := h.Append(bytes.Repeat([]byte{0xAB}, 4096)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.Append(bytes.Repeat([]byte{0xCD}, 64)); err != nil {
				return // allocation full is fine; keep the readers going
			}
		}
	}()
	for i := 0; i < 200; i++ {
		seg, lease, err := h.Lend(0, 4096)
		if err != nil || len(seg) != 4096 {
			t.Fatalf("Lend: len=%d err=%v", len(seg), err)
		}
		var sink bytes.Buffer
		sink.Write(seg)
		lease.Release()
		for j, b := range sink.Bytes() {
			if b != 0xAB {
				t.Fatalf("byte %d: got %#x, want 0xAB — append disturbed a lent segment", j, b)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Out-of-range segments fail without pinning anything.
	if _, _, err := h.Lend(0, 1<<30); err == nil {
		t.Fatal("out-of-range Lend should fail")
	}
	if _, _, err := h.Lend(-1, 16); err == nil {
		t.Fatal("negative offset Lend should fail")
	}
}
