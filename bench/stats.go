package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentiles is the ladder a timing may be reported at, each with
// the share of samples beyond it in parts per thousand.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{50, 500}, {90, 100}, {99, 10}, {99.9, 1}}

// highestSupported returns the highest percentile of tailPercentiles that
// still has at least ten of n samples beyond it, or 0 when not even the
// median does.
func highestSupported(n int) float64 {
	best := 0.0
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// medianSpread estimates, from the samples a reported median was taken
// over, the quartile spread that repeats of that median would show, as a
// share of it. The samples are slices of one window in time order, and a
// workload may move between them for a reason (degraded_full loses a depot
// at mid-window), so their noise is read off the steps between neighbours:
// the median step is 0.95 sigma of one sample, the quartiles of a sample
// are 1.35 sigma apart, and the median of n samples varies 1.25/sqrt(n)
// as much as one of them.
func medianSpread(v []float64) float64 {
	med := math.Abs(median(v))
	if len(v) < 2 || med == 0 {
		return 0
	}
	steps := make([]float64, len(v)-1)
	for i := range steps {
		steps[i] = math.Abs(v[i+1] - v[i])
	}
	return median(steps) / 0.954 * 1.349 * 1.25 / math.Sqrt(float64(len(v))) / med
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs, each clipped to within.
func unionLen(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := interval{}
	for i, iv := range clipped {
		if i == 0 || iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is the part of parent its children do not cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionLen(parent, children)
}
