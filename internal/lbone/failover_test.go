package lbone

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/vclock"
)

// Regression: liveness expiry must be driven by the injected clock only
// (same class as the PR 2 applyDeadline wall-clock bug). A registry under
// a virtual clock keeps depots live no matter how much wall time passes,
// and expires them the moment virtual time crosses the TTL.
func TestRegistryExpiryVirtualTimeOnly(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	r := NewRegistryClock(10*time.Millisecond, clk)
	r.Register(depotAt("UTK1", geo.UTK, 1, time.Hour))

	// Wall time passes well beyond the TTL; virtual time does not move.
	time.Sleep(50 * time.Millisecond)
	if got := r.Query(Requirements{}); len(got) != 1 {
		t.Fatalf("depot expired on wall clock: %d live after real sleep, want 1", len(got))
	}
	if r.LiveLen() != 1 {
		t.Fatal("LiveLen consulted wall clock")
	}

	// Virtual time crossing the TTL is what expires it.
	clk.Advance(11 * time.Millisecond)
	if got := r.Query(Requirements{}); len(got) != 0 {
		t.Fatalf("depot still live after virtual TTL: %d", len(got))
	}
}

// Restore preserves the replica-reported LastSeen (the quorum merge
// primitive) and never rolls liveness backwards.
func TestRegistryRestorePreservesLastSeen(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	r := NewRegistryClock(time.Minute, clk)

	d := depotAt("UTK1", geo.UTK, 1, time.Hour)
	d.LastSeen = clk.Now().Add(-2 * time.Minute) // already stale when merged
	r.Restore(d)
	if r.LiveLen() != 0 {
		t.Fatal("stale merged entry should not be live")
	}

	// A fresher stamp wins; an older one must not clobber it.
	d.LastSeen = clk.Now()
	r.Restore(d)
	if r.LiveLen() != 1 {
		t.Fatal("fresh merged entry should be live")
	}
	d.LastSeen = clk.Now().Add(-time.Hour)
	r.Restore(d)
	if r.LiveLen() != 1 {
		t.Fatal("Restore rolled liveness backwards")
	}

	// Zero LastSeen behaves like Register.
	var z DepotInfo
	z.Addr, z.Name, z.Site, z.Loc = "z:1", "Z", geo.UTK.Name, geo.UTK.Loc
	r.Restore(z)
	if r.LiveLen() != 2 {
		t.Fatal("zero-stamp Restore should register as live")
	}
}

// -race hammer: depots re-register (and heartbeat, and get queried) while
// the capacity-poller sweep runs over the same registry and the virtual
// clock advances the expiry horizon. The shared mutex must serialize every
// table access.
func TestPollerReRegisterRace(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	reg := NewRegistryClock(30*time.Millisecond, clk)
	var mu sync.Mutex

	seed := func(n string) DepotInfo { return depotAt(n, geo.UTK, 1, time.Hour) }
	mu.Lock()
	reg.Register(seed("A"))
	reg.Register(seed("B"))
	mu.Unlock()

	// The poller dials depot addrs that refuse instantly; the sweep still
	// reads the table under the lock, which is the contended path.
	p := NewPoller(reg, &mu, ibp.NewClient(ibp.WithDialTimeout(50*time.Millisecond)), clk, time.Minute)

	const rounds = 150
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // expiry sweep
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p.PollOnce()
		}
	}()
	go func() { // re-registration
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			mu.Lock()
			reg.Register(seed("A"))
			reg.Heartbeat(seed("B").Addr)
			mu.Unlock()
		}
	}()
	go func() { // liveness-sensitive reads
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			mu.Lock()
			reg.Query(Requirements{})
			reg.LiveLen()
			mu.Unlock()
		}
	}()
	go func() { // time marches: entries expire mid-sweep
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			clk.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
}
