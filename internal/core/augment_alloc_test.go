package core

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/geo"
)

// outstandingBuffers is the process-wide count of pool buffers handed out
// and not yet returned.
func outstandingBuffers() int64 {
	s := bufpool.Snapshot()
	return s.Gets - s.Puts
}

// TestAugmentReleasesDownloadBuffer is the ownership regression for the
// repair read path: Augment downloads the current contents into a
// pool-backed buffer and must return it once the repair upload no longer
// needs it. The old code dropped the buffer on the floor, so every repair
// pass drained the pool by one file-sized buffer.
//
// The accounting is bufpool's own Get and Put counters, not bytes
// allocated (a GC cycle empties sync.Pool, so a byte threshold measured
// the collector as much as the code): whatever a cycle borrows it gives
// back, so Gets − Puts after N cycles equals its value before them. A
// leak of one buffer per cycle leaves it N higher, for good.
func TestAugmentReleasesDownloadBuffer(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	const fileSize = 2 << 20
	data := payload(fileSize)
	x, err := tl.Upload("allocs.dat", data, UploadOptions{
		Depots: e.infosFor("A"), Duration: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A mem depot keeps each STORE's pooled payload buffer as the
	// allocation's storage until it is deleted, so the base copy on A holds
	// its buffers for the whole test. Nothing else keeps a pool buffer
	// between operations, and nothing is in flight once Upload has
	// returned: this is the count every cycle comes back to.
	before := outstandingBuffers()

	// One repair cycle: add a replica on B, then drop it again so every
	// cycle starts from the same single-replica state.
	cycle := func() {
		aug, err := tl.Augment(x, AugmentOptions{
			Replicas: 1, Depots: e.infosFor("B"), Duration: 48 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := 1
		if _, err := tl.Trim(aug, TrimOptions{Replica: &r, DeleteFromIBP: true}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 6
	for i := 0; i < runs; i++ {
		cycle()
	}
	// A depot handler returns its payload buffer after it has answered,
	// so the last one may still be on its way back when Trim returns; a
	// leaked buffer never comes back.
	deadline := time.Now().Add(5 * time.Second)
	for outstandingBuffers() != before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := outstandingBuffers(); after != before {
		t.Fatalf("%d pool buffers outstanding after %d augment cycles, %d before them: the download buffer is not returning to the pool",
			after, runs, before)
	}
}
