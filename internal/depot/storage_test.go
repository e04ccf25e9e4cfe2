package depot

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/ibp"
	"repro/internal/wire"
)

// TestStoreDeleteAllocatesNoStorage pins the one-copy STORE: a mem depot
// keeps the STORE's pooled payload buffer as the allocation's storage and
// hands it back to the pool on DELETE, so a STORE + DELETE cycle costs the
// heap next to nothing. A handler that copied the payload into storage of
// its own would allocate at least one byte per stored byte.
func TestStoreDeleteAllocatesNoStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	d, _ := newDepot(t, Config{})
	c := ibp.NewClient(ibp.WithPooling(1))
	defer c.Close()
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	cycle := func() {
		set, err := c.AllocateStore(d.Addr(), int64(len(payload)), time.Hour, ibp.Hard, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(set.Manage); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the buffer pool and the client's parked connection.
	for i := 0; i < 4; i++ {
		cycle()
	}
	// A collection empties sync.Pool; its refill would be counted as the
	// handler's allocation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const cycles = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(cycles*len(payload))
	if perByte >= 0.1 {
		t.Fatalf("a STORE + DELETE cycle allocates %.3f heap bytes per stored byte, want < 0.1: the payload is copied into storage", perByte)
	}
}

// TestStreamedLoadPinsAcrossRemove: a lent segment outlives the removal of
// its byte array. Without the pin, Remove would put the storage back in
// the pool and the next STORE of the same size class would refill it under
// the segment.
func TestStreamedLoadPinsAcrossRemove(t *testing.T) {
	b := NewMemBackend()
	mine := bytes.Repeat([]byte{0x11}, 64<<10)
	h, err := b.Create("mine", int64(len(mine)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(mine); err != nil {
		t.Fatal(err)
	}
	seg, lease, err := h.Lend(0, int64(len(mine)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("mine"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Lend(0, 1); err == nil {
		t.Fatal("a removed byte array lent a segment")
	}
	if _, err := h.Append([]byte{1}); err == nil {
		t.Fatal("a removed byte array took an append")
	}
	other, err := b.Create("other", int64(len(mine)))
	if err != nil {
		t.Fatal(err)
	}
	p := bufpool.Get(len(mine))
	for i := range p {
		p[i] = 0x22
	}
	if _, owned, err := other.(OwningAppender).AppendOwned(p); err != nil || !owned {
		t.Fatalf("AppendOwned into an empty array: owned=%v err=%v, want it kept as storage", owned, err)
	}
	if !bytes.Equal(seg, mine) {
		t.Fatal("a lent segment changed after its byte array was removed: its storage went back to the pool while pinned")
	}
	lease.Release()
	if err := b.Remove("other"); err != nil {
		t.Fatal(err)
	}
}

// onEveryBackend runs f on a fresh depot over each backend. A pack bundle
// holds exactly one allocation of size bytes, so a DELETE of an allocation
// whose bundle is sealed drops the bundle, and the mapping a LOAD is sent
// from with it.
func onEveryBackend(t *testing.T, size int64, f func(t *testing.T, d *Depot)) {
	for kind, be := range backends(t, size) {
		t.Run(kind, func(t *testing.T) {
			d, _ := newDepot(t, Config{Backend: be})
			f(t, d)
		})
	}
}

// TestStreamedLoadOutlivesDelete holds a LOAD mid-stream across a DELETE
// of its allocation and STOREs that refill pooled buffers of the same size
// class. The payload is more than loopback's socket buffers take in
// before the reader reads, so the depot is normally still writing it when
// the DELETE lands; the reader must still get the bytes the depot
// answered OK for, on every backend.
func TestStreamedLoadOutlivesDelete(t *testing.T) {
	const size = 8 << 20
	onEveryBackend(t, size, func(t *testing.T, d *Depot) {
		c := ibp.NewClient(ibp.WithPooling(1))
		defer c.Close()
		mine := bytes.Repeat([]byte{0x11}, size)
		set, err := c.AllocateStore(d.Addr(), size, time.Hour, ibp.Hard, mine)
		if err != nil {
			t.Fatal(err)
		}
		other := bytes.Repeat([]byte{0x22}, size)
		refill := func() {
			if _, err := c.AllocateStore(d.Addr(), size, time.Hour, ibp.Hard, other); err != nil {
				t.Fatal(err)
			}
		}
		// Sealing mine's pack bundle lets the DELETE drop it.
		refill()
		raw, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		conn := wire.NewConn(raw)
		if err := conn.WriteLine(ibp.OpLoad, set.Read.Token(), "0", wire.Itoa(size)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadStatus(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(set.Manage); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			refill()
		}
		got, err := conn.ReadBlob(size)
		if err != nil {
			t.Fatalf("a LOAD answered OK before its DELETE broke off: %v", err)
		}
		if i := bytes.IndexByte(got, 0x22); i >= 0 {
			t.Fatalf("byte %d of a LOAD answered before its DELETE came from a later STORE: its storage went back to the pool mid-stream", i)
		}
	})
}

// TestStreamedLoadRacingDelete races LOADs against DELETEs and the STOREs
// that refill the storage those DELETEs give back, over real connections
// and on every backend. Every allocation holds its own fill byte, so a
// LOAD that sent storage recycled under it would return another
// allocation's bytes. A LOAD may be refused (its allocation is gone) but
// must never return foreign or torn bytes, nor break off after its OK.
// Run under -race.
func TestStreamedLoadRacingDelete(t *testing.T) {
	const (
		slots   = 4
		size    = 64 << 10
		writers = 2
		readers = 4
		iters   = 60
	)
	onEveryBackend(t, size, func(t *testing.T, d *Depot) {
		c := ibp.NewClient(ibp.WithPooling(8))
		defer c.Close()
		// Readers dial per LOAD: a pooled client would retry a LOAD that
		// broke off on a fresh connection and hide the break.
		rc := ibp.NewClient()
		type slot struct {
			set  ibp.CapSet
			fill byte
		}
		var mu sync.Mutex
		var table [slots]slot
		var next byte
		store := func() (slot, error) {
			mu.Lock()
			next++
			fill := next
			mu.Unlock()
			set, err := c.AllocateStore(d.Addr(), size, time.Hour, ibp.Hard, bytes.Repeat([]byte{fill}, size))
			return slot{set, fill}, err
		}
		for k := range table {
			s, err := store()
			if err != nil {
				t.Fatal(err)
			}
			table[k] = s
		}

		var wg sync.WaitGroup
		errs := make(chan error, writers+readers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					s, err := store()
					if err != nil {
						errs <- err
						return
					}
					k := (w + i) % slots
					mu.Lock()
					old := table[k]
					table[k] = s
					mu.Unlock()
					if _, err := c.Delete(old.set.Manage); err != nil {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				}
			}(w)
		}
		var loaded atomic.Int64
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 2*iters; i++ {
					mu.Lock()
					s := table[rng.Intn(slots)]
					mu.Unlock()
					off := rng.Intn(size)
					got, err := rc.Load(s.set.Read, int64(off), int64(size-off))
					if wire.IsRemoteAny(err) {
						continue // its allocation was deleted first
					}
					if err != nil {
						errs <- fmt.Errorf("fill %#x: a LOAD broke off: %w", s.fill, err)
						return
					}
					loaded.Add(1)
					if len(got) != size-off {
						errs <- fmt.Errorf("fill %#x: got %d bytes, want %d", s.fill, len(got), size-off)
						return
					}
					for j, b := range got {
						if b != s.fill {
							errs <- fmt.Errorf("fill %#x: byte %d is %#x: a LOAD sent another allocation's bytes", s.fill, off+j, b)
							return
						}
					}
				}
			}(int64(r))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if loaded.Load() == 0 {
			t.Fatal("no LOAD succeeded: the race was never run")
		}
	})
}
