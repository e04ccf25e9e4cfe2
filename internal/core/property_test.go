package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

// TestDownloadRandomLayoutsProperty uploads files with randomized explicit
// layouts (random replica counts, random fragment boundaries) and checks
// that Download reassembles the exact bytes, whole-file and for random
// ranges. This is the core invariant of the entire stack.
func TestDownloadRandomLayoutsProperty(t *testing.T) {
	e := newEnv(t)
	var names []string
	for _, n := range []string{"D1", "D2", "D3", "D4"} {
		e.addDepot(n, geo.UTK, nil)
		names = append(names, n)
	}
	tl := e.tools(geo.UTK, false)

	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(rng.Intn(60_000) + 1)
		data := make([]byte, size)
		rng.Read(data)

		// Build a random layout: 1-3 replicas, each split at random
		// boundaries into 1-6 fragments on random depots.
		var layout Layout
		replicas := rng.Intn(3) + 1
		for r := 0; r < replicas; r++ {
			nFrags := rng.Intn(6) + 1
			cuts := map[int64]bool{0: true, size: true}
			for len(cuts) < nFrags+1 {
				cuts[int64(rng.Intn(int(size)))] = true
			}
			points := make([]int64, 0, len(cuts))
			for p := range cuts {
				points = append(points, p)
			}
			sortInt64s(points)
			var frags []FragmentSpec
			for i := 0; i+1 < len(points); i++ {
				if points[i+1] == points[i] {
					continue
				}
				frags = append(frags, FragmentSpec{
					Depot:  e.Infos[names[rng.Intn(len(names))]],
					Offset: points[i],
					Length: points[i+1] - points[i],
				})
			}
			layout = append(layout, frags)
		}
		x, err := tl.UploadLayout("prop", data, layout, UploadOptions{Checksum: true})
		if err != nil {
			t.Logf("seed %d: upload: %v", seed, err)
			return false
		}
		got, _, err := tl.Download(x, DownloadOptions{})
		if err != nil || !bytes.Equal(got, data) {
			t.Logf("seed %d: whole download: %v", seed, err)
			return false
		}
		// Three random ranges.
		for i := 0; i < 3; i++ {
			off := int64(rng.Intn(int(size)))
			n := int64(rng.Intn(int(size-off))) + 1
			if off+n > size {
				n = size - off
			}
			part, _, err := tl.DownloadRange(x, off, n, DownloadOptions{})
			if err != nil || !bytes.Equal(part, data[off:off+n]) {
				t.Logf("seed %d: range [%d,%d): %v", seed, off, off+n, err)
				return false
			}
		}
		// Cleanup so depots don't fill across iterations.
		for _, m := range x.Mappings {
			tl.IBP.Delete(m.Manage)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func sortInt64s(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
