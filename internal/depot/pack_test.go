package depot

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/ibp"
)

func TestPackBackendRoundTrip(t *testing.T) {
	pb, err := NewPackBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	h, err := pb.Create("k1", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if n, err := h.Append([]byte("pack")); err != nil || n != 10 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	got := make([]byte, 10)
	if err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello pack" {
		t.Fatalf("read back %q", got)
	}
	seg, lease, err := h.Lend(6, 4)
	if err != nil || string(seg) != "pack" {
		t.Fatalf("Lend: err=%v got %q", err, seg)
	}
	lease.Release()
	if _, err := h.Append(bytes.Repeat([]byte("x"), 2048)); err != ErrAllocFull {
		t.Fatalf("overfull append err = %v, want ErrAllocFull", err)
	}
}

func TestPackBackendBundleRollover(t *testing.T) {
	// A tiny bundle cap forces rollover: three 400-byte reservations cannot
	// share a 1000-byte bundle, so the third lands in bundle 1.
	pb, err := NewPackBackend(t.TempDir(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	for i := 0; i < 3; i++ {
		h, err := pb.Create(fmt.Sprintf("k%d", i), 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := pb.Bundles(); got != 2 {
		t.Fatalf("bundle count = %d, want 2", got)
	}
	if _, err := pb.Create("huge", 4096); err == nil {
		t.Fatal("allocation above bundle cap should fail")
	}
	// Killing both allocations of bundle 0 deletes its file; the active
	// bundle stays even when empty.
	if err := pb.Remove("k0"); err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("k1"); err != nil {
		t.Fatal(err)
	}
	if got := pb.Bundles(); got != 1 {
		t.Fatalf("bundle count after removes = %d, want 1", got)
	}
}

func TestPackBackendReplay(t *testing.T) {
	dir := t.TempDir()
	pb, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := pb.Create("keep", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("survives restart")); err != nil {
		t.Fatal(err)
	}
	if err := pb.SaveMeta("keep", AllocMeta{MaxSize: 400, Expires: 99, Reliability: "HARD", RefCount: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Create("gone", 400); err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}

	pb2, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer pb2.Close()
	h2, err := pb2.Open("keep", 400)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != int64(len("survives restart")) {
		t.Fatalf("replayed len = %d", h2.Len())
	}
	got := make([]byte, h2.Len())
	if err := h2.ReadAt(got, 0); err != nil || string(got) != "survives restart" {
		t.Fatalf("replayed read: %q, %v", got, err)
	}
	if _, err := pb2.Open("gone", 400); err == nil {
		t.Fatal("removed key must not replay")
	}
	metas, err := pb2.LoadMeta()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := metas["keep"]; !ok || m.Expires != 99 || m.RefCount != 1 {
		t.Fatalf("replayed meta = %+v", metas)
	}
	// Appends must continue where the journal left off.
	if n, err := h2.Append([]byte("!")); err != nil || n != int64(len("survives restart")+1) {
		t.Fatalf("append after replay: n=%d err=%v", n, err)
	}
}

// TestDepotOnPackBackendSurvivesRestart runs the whole daemon on the pack
// engine: capabilities minted before a restart keep working after it, the
// same guarantee the file backend gives. The restarted depot rebinds the
// original port so the minted capabilities still dial it.
func TestDepotOnPackBackendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	pb, err := NewPackBackend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Serve("127.0.0.1:0", Config{Secret: testSecret, Capacity: 64 << 20, Backend: pb})
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	c := ibp.NewClient()
	payload := []byte("packed and durable")
	set, err := c.Allocate(addr, 1<<10, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	d.Close()
	pb.Close()

	pb2, err := NewPackBackend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Serve(addr, Config{Secret: testSecret, Capacity: 64 << 20, Backend: pb2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	if d2.Metrics().Restores.Load() != 1 {
		t.Fatalf("restores = %d, want 1", d2.Metrics().Restores.Load())
	}
	c2 := ibp.NewClient()
	got, err := c2.Load(set.Read, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read after restart: %q", got)
	}
}

// TestPackLendOutlivesBundleDrop: a lent pack segment is the bundle's
// mapping itself, pinned. Removing the last allocation of a sealed bundle
// drops the bundle, but its munmap and file deletion wait for the lease;
// closing the backend waits the same way.
func TestPackLendOutlivesBundleDrop(t *testing.T) {
	dir := t.TempDir()
	const size = 4096
	pb, err := NewPackBackend(dir, size)
	if err != nil {
		t.Fatal(err)
	}
	mine := bytes.Repeat([]byte{0x11}, size)
	h, err := pb.Create("mine", size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(mine); err != nil {
		t.Fatal(err)
	}
	next, err := pb.Create("next", size) // seals mine's bundle
	if err != nil {
		t.Fatal(err)
	}
	seg, lease, err := h.Lend(0, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("mine"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Lend(0, 1); err == nil {
		t.Fatal("a dropped bundle lent a segment")
	}
	if err := h.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("a dropped bundle was read")
	}
	if got := pb.Bundles(); got != 2 {
		t.Fatalf("bundles while a segment of the dropped one is lent = %d, want 2", got)
	}
	if !bytes.Equal(seg, mine) {
		t.Fatal("a lent segment changed after its bundle was dropped")
	}
	lease.Release()
	if got := pb.Bundles(); got != 1 {
		t.Fatalf("bundles after the last lease = %d, want 1", got)
	}
	if _, err := os.Stat(pb.bundlePath(0)); !os.IsNotExist(err) {
		t.Fatalf("dropped bundle file after the last lease: %v, want it deleted", err)
	}

	if _, err := next.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	seg, lease, err = next.Lend(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}
	if string(seg) != "next" {
		t.Fatalf("a lent segment read %q after Close, want %q", seg, "next")
	}
	if _, _, err := next.Lend(0, 4); err == nil {
		t.Fatal("a closed backend lent a segment")
	}
	lease.Release()
	if _, err := os.Stat(pb.bundlePath(1)); err != nil {
		t.Fatalf("Close deleted a live bundle: %v", err)
	}
}

// TestPackLendWithoutMapping covers bundles with no mapping (the pread
// build, or an old bundle shorter than the capacity): Lend preads into a
// pooled buffer under the pin, and ReadAt preads straight into p.
func TestPackLendWithoutMapping(t *testing.T) {
	pb, err := NewPackBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	h, err := pb.Create("k", 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("preads under the pin")
	if _, err := h.Append(want); err != nil {
		t.Fatal(err)
	}
	pb.mu.Lock()
	for _, bun := range pb.bundles {
		munmapFile(bun.mm)
		bun.mm = nil
	}
	pb.mu.Unlock()
	if err := lendAgrees(h, want); err != nil {
		t.Fatal(err)
	}
}
