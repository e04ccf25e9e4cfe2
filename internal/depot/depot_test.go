package depot

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

var testSecret = []byte("depot-test-secret")

// newDepot starts a depot on a loopback port and returns it with a client.
func newDepot(t *testing.T, cfg Config) (*Depot, *ibp.Client) {
	t.Helper()
	if cfg.Secret == nil {
		cfg.Secret = testSecret
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 64 << 20
	}
	d, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	opts := []ibp.Option{}
	if cfg.Clock != nil {
		opts = append(opts, ibp.WithClock(cfg.Clock))
	}
	return d, ibp.NewClient(opts...)
}

func TestAllocateStoreLoadRoundTrip(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 1<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("logistical networking "), 1000)
	n, err := c.Store(set.Write, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("stored length = %d, want %d", n, len(data))
	}
	got, err := c.Load(set.Read, 0, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("loaded data differs from stored data")
	}
	// Partial read from an interior offset.
	got, err = c.Load(set.Read, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100:150]) {
		t.Fatal("interior read mismatch")
	}
}

func TestStoreIsAppendOnly(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 100, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	n, err := c.Store(set.Write, []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("appended length = %d, want 11", n)
	}
	got, err := c.Load(set.Read, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestStoreOverflowsAllocation(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 10, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, make([]byte, 11)); !wire.IsRemote(err, wire.CodeNoSpace) {
		t.Fatalf("overflow store error = %v, want NO_SPACE", err)
	}
	// Exactly filling is fine.
	if _, err := c.Store(set.Write, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("x")); !wire.IsRemote(err, wire.CodeNoSpace) {
		t.Fatalf("append-past-full error = %v, want NO_SPACE", err)
	}
}

func TestLoadBeyondWrittenLength(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 100, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(set.Read, 5, 10); !wire.IsRemote(err, wire.CodeOutOfRange) {
		t.Fatalf("out-of-range load error = %v, want OUT_OF_RANGE", err)
	}
	// A range whose end overflows int64 is out of range too, not a
	// handler panic. The client refuses such a length, so send it raw.
	raw, err := netDial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := wire.NewConn(raw)
	if err := conn.WriteLine(ibp.OpLoad, set.Read.Token(), "1", wire.Itoa(math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); !wire.IsRemote(err, wire.CodeOutOfRange) {
		t.Fatalf("overflowing load error = %v, want OUT_OF_RANGE", err)
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 100, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	// Client-side type check: wrong cap type is refused before dialing.
	if _, err := c.Store(set.Read, []byte("x")); err == nil {
		t.Fatal("store with READ cap should fail client-side")
	}
	if _, err := c.Load(set.Write, 0, 0); err == nil {
		t.Fatal("load with WRITE cap should fail client-side")
	}
	// Server-side: forged tag is denied.
	forged := set.Write
	forged.Tag = strings.Repeat("00", ibp.TagLen)
	fc := ibp.NewClient()
	if _, err := fc.Store(forged, []byte("x")); !wire.IsRemote(err, wire.CodeDenied) {
		t.Fatalf("forged cap error = %v, want DENIED", err)
	}
	// Server-side: a READ token sent on a WRITE path is a cap mismatch.
	crossed := set.Read
	crossed.Type = ibp.CapWrite // type says WRITE but tag was minted for READ
	if _, err := fc.Store(crossed, []byte("x")); !wire.IsRemote(err, wire.CodeDenied) {
		t.Fatalf("crossed cap error = %v, want DENIED", err)
	}
}

func TestProbeExtendDelete(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC))
	d, c := newDepot(t, Config{Clock: clk})
	set, err := c.Allocate(d.Addr(), 500, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	info, err := c.Probe(set.Manage)
	if err != nil {
		t.Fatal(err)
	}
	if info.MaxSize != 500 || info.Size != 3 || info.Reliability != ibp.Soft || info.RefCount != 1 {
		t.Fatalf("probe = %+v", info)
	}
	wantExp := clk.Now().Add(time.Hour)
	if info.Expires.Unix() != wantExp.Unix() {
		t.Fatalf("expires = %v, want %v", info.Expires, wantExp)
	}
	// Extend to 2h from now.
	newExp, err := c.Extend(set.Manage, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if newExp.Unix() != clk.Now().Add(2*time.Hour).Unix() {
		t.Fatalf("extended to %v", newExp)
	}
	// Extend with a shorter duration must not shrink the expiry.
	shorter, err := c.Extend(set.Manage, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if shorter.Before(newExp) {
		t.Fatalf("extend shrank expiry: %v < %v", shorter, newExp)
	}
	// Delete frees the allocation.
	ref, err := c.Delete(set.Manage)
	if err != nil {
		t.Fatal(err)
	}
	if ref != 0 {
		t.Fatalf("refcount after delete = %d", ref)
	}
	if _, err := c.Probe(set.Manage); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("probe after delete = %v, want NOT_FOUND", err)
	}
	if d.AllocationCount() != 0 || d.UsedBytes() != 0 {
		t.Fatalf("depot should be empty: %d allocs, %d used", d.AllocationCount(), d.UsedBytes())
	}
}

func TestExpirationLazyAndReaper(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC))
	d, c := newDepot(t, Config{Clock: clk})
	set, err := c.Allocate(d.Addr(), 100, time.Minute, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("ephemeral")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	// Lazy enforcement: access after expiry fails.
	if _, err := c.Load(set.Read, 0, 9); !wire.IsRemote(err, wire.CodeExpired) {
		t.Fatalf("expired load error = %v, want EXPIRED", err)
	}
	// The lazy check also reclaimed the space.
	if d.UsedBytes() != 0 {
		t.Fatalf("used = %d after expiry access", d.UsedBytes())
	}
	// Reaper path: fresh allocation, expire, sweep.
	set2, err := c.Allocate(d.Addr(), 100, time.Minute, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	_ = set2
	clk.Advance(2 * time.Minute)
	if n := d.ReapExpired(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if d.AllocationCount() != 0 {
		t.Fatal("allocation should be gone after reap")
	}
}

func TestDurationLimit(t *testing.T) {
	d, c := newDepot(t, Config{MaxDuration: time.Hour})
	if _, err := c.Allocate(d.Addr(), 100, 2*time.Hour, ibp.Hard); !wire.IsRemote(err, wire.CodeDurationCap) {
		t.Fatalf("over-duration allocate = %v, want DURATION_LIMIT", err)
	}
	set, err := c.Allocate(d.Addr(), 100, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extend(set.Manage, 3*time.Hour); !wire.IsRemote(err, wire.CodeDurationCap) {
		t.Fatalf("over-duration extend = %v, want DURATION_LIMIT", err)
	}
}

func TestCapacityAccounting(t *testing.T) {
	d, c := newDepot(t, Config{Capacity: 1000})
	set1, err := c.Allocate(d.Addr(), 600, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(d.Addr(), 600, time.Hour, ibp.Hard); !wire.IsRemote(err, wire.CodeNoSpace) {
		t.Fatalf("over-capacity allocate = %v, want NO_SPACE", err)
	}
	st, err := c.Status(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalBytes != 1000 || st.UsedBytes != 600 || st.Allocations != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.AvailableBytes() != 400 {
		t.Fatalf("available = %d", st.AvailableBytes())
	}
	// Free and retry.
	if _, err := c.Delete(set1.Manage); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(d.Addr(), 600, time.Hour, ibp.Hard); err != nil {
		t.Fatalf("allocate after free: %v", err)
	}
}

func TestStatusReportsDurationLimit(t *testing.T) {
	d, c := newDepot(t, Config{MaxDuration: 42 * time.Minute})
	st, err := c.Status(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDuration != 42*time.Minute {
		t.Fatalf("max duration = %v", st.MaxDuration)
	}
}

func TestBadRequests(t *testing.T) {
	d, c := newDepot(t, Config{})
	if _, err := c.Allocate(d.Addr(), -1, time.Hour, ibp.Hard); err == nil {
		t.Fatal("negative size should fail")
	}
	if _, err := c.Allocate(d.Addr(), 10, time.Hour, ibp.Reliability("BOGUS")); err == nil {
		t.Fatal("bogus reliability should fail")
	}
	set, err := c.Allocate(d.Addr(), 10, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(set.Read, -1, 5); err == nil {
		t.Fatal("negative offset should fail")
	}
}

func TestPersistentConnectionMultipleOps(t *testing.T) {
	// Exercise the request loop directly: several ops on one connection.
	d, _ := newDepot(t, Config{})
	conn, err := dialWire(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteLine(ibp.OpAllocate, "100", "3600", "HARD"); err != nil {
		t.Fatal(err)
	}
	toks, err := conn.ReadStatus()
	if err != nil {
		t.Fatal(err)
	}
	wcap, err := ibp.ParseCap(toks[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteLine(ibp.OpStore, wcap.Token(), "5"); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteBlob([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteLine(ibp.OpStatus); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteLine(ibp.OpQuit); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownOpKeepsConnectionAlive(t *testing.T) {
	d, _ := newDepot(t, Config{})
	conn, err := dialWire(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteLine("FROBNICATE"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); !wire.IsRemote(err, wire.CodeUnsupported) {
		t.Fatalf("got %v, want UNSUPPORTED", err)
	}
	// Connection still usable.
	if err := conn.WriteLine(ibp.OpStatus); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	backend, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, c := newDepot(t, Config{Backend: backend})
	set, err := c.Allocate(d.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 4096)
	if _, err := c.Store(set.Write, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Load(set.Read, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[8:108]) {
		t.Fatal("file backend read mismatch")
	}
	if _, err := c.Delete(set.Manage); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	d, c := newDepot(t, Config{})
	const workers = 16
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			set, err := c.Allocate(d.Addr(), 4096, time.Hour, ibp.Hard)
			if err != nil {
				errs <- err
				return
			}
			payload := bytes.Repeat([]byte{byte(i)}, 512)
			if _, err := c.Store(set.Write, payload); err != nil {
				errs <- err
				return
			}
			got, err := c.Load(set.Read, 0, 512)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- bytes.ErrTooLarge // sentinel: mismatch
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if d.AllocationCount() != workers {
		t.Fatalf("allocations = %d, want %d", d.AllocationCount(), workers)
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", Config{Capacity: 100}); err == nil {
		t.Fatal("missing secret should fail")
	}
	if _, err := Serve("127.0.0.1:0", Config{Secret: testSecret}); err == nil {
		t.Fatal("missing capacity should fail")
	}
}

// dialWire opens a raw framed connection to addr.
func dialWire(addr string) (*wire.Conn, error) {
	c, err := netDial(addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(c), nil
}

func TestMaxAllocSize(t *testing.T) {
	d, c := newDepot(t, Config{Capacity: 1000, MaxAllocSize: 100})
	if _, err := c.Allocate(d.Addr(), 200, time.Hour, ibp.Hard); !wire.IsRemote(err, wire.CodeQuotaReached) {
		t.Fatalf("oversized allocation = %v, want QUOTA", err)
	}
	if _, err := c.Allocate(d.Addr(), 100, time.Hour, ibp.Hard); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthStoreAndLoad(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 10, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, nil); err != nil {
		t.Fatalf("zero-length store: %v", err)
	}
	got, err := c.Load(set.Read, 0, 0)
	if err != nil {
		t.Fatalf("zero-length load: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	d, _ := newDepot(t, Config{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPooledClientReuseAndStaleRetry(t *testing.T) {
	d, _ := newDepot(t, Config{})
	c := ibp.NewClient(ibp.WithPooling(4))
	defer c.Close()
	set, err := c.Allocate(d.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("pooled data")); err != nil {
		t.Fatal(err)
	}
	// Several loads reuse the same parked connection.
	for i := 0; i < 5; i++ {
		got, err := c.Load(set.Read, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "pooled data" {
			t.Fatalf("got %q", got)
		}
	}
	// Probe through the pool too.
	if _, err := c.Probe(set.Manage); err != nil {
		t.Fatal(err)
	}
	// Restart the depot on the SAME address: parked connections go stale,
	// and an idempotent op (Load) must transparently retry on a fresh dial.
	addr := d.Addr()
	secret := []byte("depot-test-secret")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Serve(addr, Config{Secret: secret, Capacity: 64 << 20})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer d2.Close()
	// The allocation is gone on the new depot (fresh state): the retry
	// must reach the server and get a clean remote NOT_FOUND, not a
	// connection error.
	if _, err := c.Load(set.Read, 0, 11); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("stale-pool load = %v, want remote NOT_FOUND via retry", err)
	}
}

func TestAdvertisedDefaultsToListenAddr(t *testing.T) {
	d, _ := newDepot(t, Config{})
	if d.Advertised() != d.Addr() {
		t.Fatalf("advertised = %s", d.Advertised())
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	// The paper's Harvard depot restarted via cron (§3.2); clients'
	// capabilities kept working. Reproduce: file-backed depot, restart on
	// the same address with the same secret, capabilities still resolve.
	dir := t.TempDir()
	clk := vclock.NewVirtual(time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC))
	backend, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Serve("127.0.0.1:0", Config{Secret: testSecret, Capacity: 1 << 20, Backend: backend, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	c := ibp.NewClient(ibp.WithClock(clk))
	set, err := c.Allocate(addr, 1000, 2*time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("durable bytes")); err != nil {
		t.Fatal(err)
	}
	short, err := c.Allocate(addr, 500, time.Minute, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	// Extend the first allocation so the persisted expiry moved.
	if _, err := c.Extend(set.Manage, 4*time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Time passes while the daemon is down; the short allocation expires.
	clk.Advance(5 * time.Minute)
	backend2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Serve(addr, Config{Secret: testSecret, Capacity: 1 << 20, Backend: backend2, Clock: clk})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer d2.Close()

	// The long-lived allocation survived with its data and extended expiry.
	got, err := c.Load(set.Read, 0, 13)
	if err != nil {
		t.Fatalf("load after restart: %v", err)
	}
	if string(got) != "durable bytes" {
		t.Fatalf("got %q", got)
	}
	info, err := c.Probe(set.Manage)
	if err != nil {
		t.Fatal(err)
	}
	if info.Expires.Before(clk.Now().Add(3 * time.Hour)) {
		t.Fatalf("extended expiry lost: %v", info.Expires)
	}
	if info.Reliability != ibp.Hard || info.Size != 13 {
		t.Fatalf("restored meta: %+v", info)
	}
	// The expired allocation was dropped during restore.
	if _, err := c.Probe(short.Manage); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("expired alloc after restart = %v, want NOT_FOUND", err)
	}
	// Appending still respects the original size bound.
	if _, err := c.Store(set.Write, make([]byte, 988)); !wire.IsRemote(err, wire.CodeNoSpace) {
		t.Fatalf("append past restored bound = %v, want NO_SPACE", err)
	}
	// Capacity accounting restored too: 1000 of 1<<20 used.
	st, err := c.Status(addr)
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedBytes != 1000 || st.Allocations != 1 {
		t.Fatalf("restored status: %+v", st)
	}
}

func TestMetricsCounters(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 1000)
	if _, err := c.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(set.Read, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Probe(set.Manage); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extend(set.Manage, time.Hour); err != nil {
		t.Fatal(err)
	}
	// One capability violation.
	forged := set.Read
	forged.Tag = strings.Repeat("00", ibp.TagLen)
	c.Load(forged, 0, 1)
	if _, err := c.Delete(set.Manage); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if m.Allocates != 1 || m.Stores != 1 || m.Loads != 1 || m.Probes != 1 ||
		m.Extends != 1 || m.Deletes != 1 {
		t.Fatalf("op counters: %+v", m)
	}
	if m.BytesIn != 1000 || m.BytesOut != 1000 {
		t.Fatalf("byte counters: %+v", m)
	}
	if m.Violations != 1 || m.Errors < 1 {
		t.Fatalf("violation counters: %+v", m)
	}
	if m.Connects == 0 {
		t.Fatalf("connects: %+v", m)
	}
}

func TestSoftAllocationsEvictedUnderPressure(t *testing.T) {
	d, c := newDepot(t, Config{Capacity: 1000})
	// Two soft allocations with different expirations, one hard.
	soonSoft, err := c.Allocate(d.Addr(), 300, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	lateSoft, err := c.Allocate(d.Addr(), 300, 10*time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := c.Allocate(d.Addr(), 300, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(hard.Write, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	// 900/1000 used. A 300-byte hard request forces eviction of the
	// earliest-expiring soft allocation only.
	if _, err := c.Allocate(d.Addr(), 300, time.Hour, ibp.Hard); err != nil {
		t.Fatalf("allocation under pressure: %v", err)
	}
	if _, err := c.Probe(soonSoft.Manage); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("earliest soft should be evicted: %v", err)
	}
	if _, err := c.Probe(lateSoft.Manage); err != nil {
		t.Fatalf("later soft should survive: %v", err)
	}
	got, err := c.Load(hard.Read, 0, 8)
	if err != nil || string(got) != "precious" {
		t.Fatalf("hard allocation disturbed: %v", err)
	}
	// A request that cannot fit even after evicting every soft alloc
	// still fails, and never touches hard allocations.
	if _, err := c.Allocate(d.Addr(), 900, time.Hour, ibp.Hard); !wire.IsRemote(err, wire.CodeNoSpace) {
		t.Fatalf("oversized request = %v, want NO_SPACE", err)
	}
	if _, err := c.Probe(hard.Manage); err != nil {
		t.Fatalf("hard allocation must never be evicted: %v", err)
	}
}

// TestThirdPartyCopiesReusePooledConns: a depot keeps one client for its
// third-party COPYs, so twenty of them to one target leave at most that
// client's four parked connections open at it, not one per COPY.
func TestThirdPartyCopiesReusePooledConns(t *testing.T) {
	src, c := newDepot(t, Config{})
	dst, _ := newDepot(t, Config{Secret: []byte("other-depot-secret")})
	srcSet, err := c.Allocate(src.Addr(), 64, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(srcSet.Write, bytes.Repeat([]byte{3}, 64)); err != nil {
		t.Fatal(err)
	}
	dstSet, err := c.Allocate(dst.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	before := dst.Metrics().Snapshot().Connects
	for i := 0; i < 20; i++ {
		if _, err := c.Copy(srcSet.Read, 0, 64, dstSet.Write); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
	if n := dst.Metrics().Snapshot().Connects - before; n > 4 {
		t.Fatalf("20 COPYs opened %d connections at the target, want at most 4", n)
	}
}

func TestThirdPartyCopy(t *testing.T) {
	src, c := newDepot(t, Config{})
	dst, _ := newDepot(t, Config{Secret: []byte("other-depot-secret")})

	srcSet, err := c.Allocate(src.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("third party "), 1024)
	if _, err := c.Store(srcSet.Write, data); err != nil {
		t.Fatal(err)
	}
	dstSet, err := c.Allocate(dst.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	// Copy an interior slice depot-to-depot.
	newLen, err := c.Copy(srcSet.Read, 12, 1200, dstSet.Write)
	if err != nil {
		t.Fatal(err)
	}
	if newLen != 1200 {
		t.Fatalf("dest length = %d", newLen)
	}
	got, err := c.Load(dstSet.Read, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[12:1212]) {
		t.Fatal("copied bytes mismatch")
	}
	// COPY appends like STORE: a second copy extends the destination.
	if _, err := c.Copy(srcSet.Read, 0, 100, dstSet.Write); err != nil {
		t.Fatal(err)
	}
	got, err = c.Load(dstSet.Read, 1200, 100)
	if err != nil || !bytes.Equal(got, data[:100]) {
		t.Fatalf("appended copy mismatch: %v", err)
	}
	// Errors: out-of-range read, wrong cap types, unreachable destination.
	if _, err := c.Copy(srcSet.Read, 0, 1<<20, dstSet.Write); !wire.IsRemote(err, wire.CodeOutOfRange) {
		t.Fatalf("oversized copy = %v", err)
	}
	if _, err := c.Copy(srcSet.Write, 0, 1, dstSet.Write); err == nil {
		t.Fatal("copy with WRITE source should fail client-side")
	}
	ghost := dstSet.Write
	ghost.Addr = "127.0.0.1:1"
	fast := ibp.NewClient(ibp.WithDialTimeout(200 * time.Millisecond))
	_ = fast
	if _, err := c.Copy(srcSet.Read, 0, 1, ghost); !wire.IsRemote(err, wire.CodeUnavailable) {
		t.Fatalf("copy to unreachable depot = %v, want UNAVAILABLE", err)
	}
	// Self-copy within one depot works too (routing within a depot).
	self2, err := c.Allocate(src.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Copy(srcSet.Read, 0, 64, self2.Write); err != nil {
		t.Fatalf("self copy: %v", err)
	}
}
