package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)

func at(min int) time.Time { return t0.Add(time.Duration(min) * time.Minute) }

func TestAppendSelectRoundTrip(t *testing.T) {
	st := New(Config{})
	labels := []Label{{Name: "depot", Value: "d1:6714"}}
	for i := 0; i < 3; i++ {
		st.Append(at(i), []Sample{{Name: "fleet_ops_total", Labels: labels, Value: float64(i * 10)}})
	}
	views := st.Select("fleet_ops_total", labels)
	if len(views) != 1 {
		t.Fatalf("Select = %d series, want 1", len(views))
	}
	v := views[0]
	if v.Samples != 3 || v.Points[0].V != 0 || v.Points[2].V != 20 {
		t.Fatalf("series points = %+v", v.Points)
	}
	if !v.First.Equal(at(0)) || !v.Last.Equal(at(2)) {
		t.Fatalf("first/last = %v/%v", v.First, v.Last)
	}
	// Matcher for a label the series doesn't carry selects nothing.
	if got := st.Select("fleet_ops_total", []Label{{Name: "member", Value: "x"}}); len(got) != 0 {
		t.Fatalf("bogus matcher selected %d series", len(got))
	}
	// Subset match: no matchers selects the series too.
	if got := st.Select("fleet_ops_total", nil); len(got) != 1 {
		t.Fatalf("no-matcher select = %d series", len(got))
	}
}

func TestRingBoundsAndDropAccounting(t *testing.T) {
	st := New(Config{})
	for i := 0; i < maxSamples+6; i++ {
		st.Append(at(i), []Sample{{Name: "g", Value: float64(i)}})
	}
	v := st.Select("g", nil)[0]
	if v.Samples != maxSamples {
		t.Fatalf("retained %d samples, want ring cap %d", v.Samples, maxSamples)
	}
	if v.Points[0].V != 6 || v.Points[maxSamples-1].V != maxSamples+5 {
		t.Fatalf("ring kept %v..%v, want the newest %d", v.Points[0], v.Points[maxSamples-1], maxSamples)
	}
	if v.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", v.Dropped)
	}
	inv := st.Inventory()
	if inv.DroppedPoints != 6 || inv.SeriesCount != 1 || inv.MaxSamples != maxSamples {
		t.Fatalf("inventory = %+v", inv)
	}
}

func TestSeriesCapRefusesAndCounts(t *testing.T) {
	st := New(Config{})
	for i := 0; i < maxSeries+3; i++ {
		st.Append(at(0), []Sample{{Name: fmt.Sprintf("s%d", i), Value: 1}})
	}
	inv := st.Inventory()
	if inv.SeriesCount != maxSeries || inv.RefusedSeries != 3 || inv.MaxSeries != maxSeries {
		t.Fatalf("series=%d refused=%d, want %d interned + 3 refused", inv.SeriesCount, inv.RefusedSeries, maxSeries)
	}
	// Existing series still accept appends at the cap.
	st.Append(at(1), []Sample{{Name: "s0", Value: 2}})
	if v := st.Select("s0", nil)[0]; v.Samples != 2 {
		t.Fatalf("capped store refused append to existing series: %+v", v)
	}
}

func TestCounterResetDetectionAtIngest(t *testing.T) {
	st := New(Config{})
	vals := []float64{0, 5, 10, 2, 4} // restart after the 10
	for i, v := range vals {
		st.Append(at(i), []Sample{{Name: "c", Value: v}})
	}
	v := st.Select("c", nil)[0]
	if v.Resets != 1 {
		t.Fatalf("resets = %d, want 1", v.Resets)
	}
	if st.Inventory().Resets != 1 {
		t.Fatalf("inventory resets = %d, want 1", st.Inventory().Resets)
	}
}

func TestSeriesKeyCanonical(t *testing.T) {
	s := Sample{Name: "up", Labels: []Label{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}}
	if s.Key() != `up{a="1",b="2"}` {
		t.Fatalf("Key = %q", s.Key())
	}
	if SeriesKey("up", nil) != "up" {
		t.Fatalf("bare SeriesKey = %q", SeriesKey("up", nil))
	}
}

// TestConcurrentAppendQuery exercises the store under -race: writers
// appending past the ring bound while readers query and snapshot the
// inventory.
func TestConcurrentAppendQuery(t *testing.T) {
	st := New(Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := []Label{{Name: "w", Value: fmt.Sprintf("%d", w)}}
			for i := 0; i < maxSamples+200; i++ {
				st.Append(at(i), []Sample{{Name: "c", Labels: labels, Value: float64(i)}})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := Expr{Fn: "increase", Name: "c"}
			for i := 0; i < 100; i++ {
				if _, err := st.Query(e, at(200), time.Hour); err != nil {
					t.Error(err)
					return
				}
				st.Inventory()
			}
		}()
	}
	wg.Wait()
	if got := len(st.Select("c", nil)); got != 4 {
		t.Fatalf("ended with %d series, want 4", got)
	}
	if got := st.Inventory().DroppedPoints; got != 4*200 {
		t.Fatalf("dropped %d points, want %d", got, 4*200)
	}
}
