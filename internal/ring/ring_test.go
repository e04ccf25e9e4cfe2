package ring

import (
	"math/rand"
	"slices"
	"testing"
)

func TestRingStates(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		pushes  int
		values  []int // oldest first
		full    bool
		dropped uint64
	}{
		{"empty", 3, 0, []int{}, false, 0},
		{"filling", 3, 2, []int{0, 1}, false, 0},
		{"exactly full", 3, 3, []int{0, 1, 2}, true, 0},
		{"wrapped once", 3, 4, []int{1, 2, 3}, true, 1},
		{"wrapped to the start", 3, 6, []int{3, 4, 5}, true, 3},
		{"wrapped past the start", 3, 8, []int{5, 6, 7}, true, 5},
		{"zero capacity holds one", 0, 2, []int{1}, true, 1},
		{"negative capacity holds one", -4, 1, []int{0}, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New[int](tc.n)
			for i := 0; i < tc.pushes; i++ {
				r.Push(i)
			}
			if r.Len() != len(tc.values) || r.Full() != tc.full || r.Dropped() != tc.dropped {
				t.Fatalf("Len %d Full %v Dropped %d, want %d %v %d",
					r.Len(), r.Full(), r.Dropped(), len(tc.values), tc.full, tc.dropped)
			}
			for i, want := range tc.values {
				if got := r.At(i); got != want {
					t.Errorf("At(%d) = %d, want %d", i, got, want)
				}
			}
			all := r.Last(nil, 0)
			if all == nil || !slices.Equal(all, tc.values) {
				t.Errorf("Last(nil, 0) = %v, want %v (non-nil)", all, tc.values)
			}
			if len(tc.values) > 0 {
				if got := r.Last(nil, 1); !slices.Equal(got, tc.values[len(tc.values)-1:]) {
					t.Errorf("Last(nil, 1) = %v, want the newest value", got)
				}
			}
			if got := r.Last([]int{-1}, 2); got[0] != -1 || len(got) != 1+min(2, len(tc.values)) {
				t.Errorf("Last(dst, 2) = %v, want it appended after dst", got)
			}
		})
	}
}

// TestRingMatchesAppendTrim is the differential check: a ring behaves like
// a slice appended to and trimmed to its newest n values.
func TestRingMatchesAppendTrim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(20)
		pushes := rng.Intn(4 * n)
		r := New[int](n)
		var ref []int
		for i := 0; i < pushes; i++ {
			v := rng.Int()
			r.Push(v)
			if ref = append(ref, v); len(ref) > n {
				ref = ref[1:]
			}
		}
		for k := 0; k <= n+1; k++ {
			want := ref
			if k > 0 && k < len(ref) {
				want = ref[len(ref)-k:]
			}
			if got := r.Last(nil, k); !slices.Equal(got, want) {
				t.Fatalf("n=%d pushes=%d: Last(nil, %d) = %v, want %v", n, pushes, k, got, want)
			}
		}
		if want := uint64(max(0, pushes-n)); r.Dropped() != want {
			t.Fatalf("n=%d pushes=%d: Dropped = %d, want %d", n, pushes, r.Dropped(), want)
		}
		vals := slices.Clone(r.Values())
		slices.Sort(vals)
		sorted := r.Last(nil, 0)
		slices.Sort(sorted)
		if !slices.Equal(vals, sorted) {
			t.Fatalf("n=%d pushes=%d: Values is not a permutation of the retained values", n, pushes)
		}
	}
}
