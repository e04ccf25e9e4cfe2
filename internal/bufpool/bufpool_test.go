package bufpool

import (
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct {
		n       int
		wantCap int
	}{
		{0, MinSize},
		{1, MinSize},
		{MinSize, MinSize},
		{MinSize + 1, MinSize * 2},
		{1000, 1024},
		{64 << 10, 64 << 10},
		{(64 << 10) + 1, 128 << 10},
		{MaxSize, MaxSize},
	}
	for _, tc := range cases {
		b := Get(tc.n)
		if len(b) != tc.n {
			t.Errorf("Get(%d): len %d, want %d", tc.n, len(b), tc.n)
		}
		if cap(b) != tc.wantCap {
			t.Errorf("Get(%d): cap %d, want %d", tc.n, cap(b), tc.wantCap)
		}
		Put(b)
	}
}

func TestOversizeNotPooled(t *testing.T) {
	before := Snapshot()
	b := Get(MaxSize + 1)
	if len(b) != MaxSize+1 {
		t.Fatalf("len %d", len(b))
	}
	Put(b) // must not panic; must be discarded
	after := Snapshot()
	if after.Oversize != before.Oversize+1 {
		t.Errorf("oversize counter: %d -> %d", before.Oversize, after.Oversize)
	}
	if after.Puts != before.Puts {
		t.Errorf("oversize buffer was pooled")
	}
}

func TestReuse(t *testing.T) {
	// A put buffer should come back for the same class. sync.Pool gives no
	// hard guarantee, but with no GC in between and a fresh per-P cache the
	// round trip is reliable in practice; retry a few times to be safe.
	ok := false
	for i := 0; i < 10 && !ok; i++ {
		b := Get(4096)
		b[0] = 0xAB
		Put(b)
		c := Get(4096)
		ok = &c[0] == &b[0]
		Put(c)
	}
	if !ok {
		t.Skip("pool did not round-trip (GC interference); not a correctness failure")
	}
}

func TestPutForeignBuffer(t *testing.T) {
	Put(nil)                     // no-op
	Put(make([]byte, 100))       // cap below MinSize: discarded
	Put(make([]byte, 0, 3*1024)) // non-power-of-two cap: discarded
	b := Get(1024)
	Put(b[:512:512]) // sub-slice with clamped cap: discarded, not re-pooled
	Put(b)
}

func TestConcurrentChurn(t *testing.T) {
	// Exercise the pool from many goroutines; run under -race this is the
	// basic "no shared buffer handed to two owners" check.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := 1 << (9 + i%8)
				b := Get(n)
				b[0], b[n-1] = seed, seed
				if b[0] != seed || b[n-1] != seed {
					t.Error("lost write")
				}
				Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

func BenchmarkGetPut64K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := Get(64 << 10)
		Put(p)
	}
}
