// Package nws reimplements the forecasting core of the Network Weather
// Service (Wolski et al., paper reference [WSH99]) — the layer the
// download tool consults to pick the depot with the highest forecast
// bandwidth (paper §2.3).
//
// Structure follows the real NWS: a battery of simple forecasters (last
// value, running mean, sliding means and medians over several window sizes,
// exponential smoothing at several gains) each predicts the next
// measurement; the battery tracks every forecaster's cumulative error and
// reports the prediction of whichever has been most accurate so far
// ("dynamic predictor selection").
package nws

import (
	"math"
	"sort"

	"repro/internal/ring"
)

// Forecaster predicts the next value of a series from its history.
type Forecaster interface {
	// Observe feeds one measurement, updating internal state.
	Observe(v float64)
	// Predict returns the forecast for the next measurement; ok is false
	// until the forecaster has enough history.
	Predict() (v float64, ok bool)
}

// ---- individual forecasters ----

type lastValue struct {
	v   float64
	set bool
}

func (f *lastValue) Observe(v float64)        { f.v, f.set = v, true }
func (f *lastValue) Predict() (float64, bool) { return f.v, f.set }

type runningMean struct {
	sum float64
	n   int
}

func (f *runningMean) Observe(v float64) {
	f.sum += v
	f.n++
}
func (f *runningMean) Predict() (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sum / float64(f.n), true
}

type slidingMean struct {
	window *ring.Ring[float64]
}

func newSlidingMean(k int) *slidingMean {
	return &slidingMean{window: ring.New[float64](k)}
}

func (f *slidingMean) Observe(v float64) { f.window.Push(v) }
func (f *slidingMean) Predict() (float64, bool) {
	n := f.window.Len()
	if n == 0 {
		return 0, false
	}
	var sum float64
	for i := 0; i < n; i++ { // oldest first: float sums depend on order
		sum += f.window.At(i)
	}
	return sum / float64(n), true
}

type slidingMedian struct {
	window *ring.Ring[float64]
}

func newSlidingMedian(k int) *slidingMedian {
	return &slidingMedian{window: ring.New[float64](k)}
}

func (f *slidingMedian) Observe(v float64) { f.window.Push(v) }
func (f *slidingMedian) Predict() (float64, bool) {
	n := f.window.Len()
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), f.window.Values()...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

type expSmoothing struct {
	alpha float64
	v     float64
	set   bool
}

func (f *expSmoothing) Observe(v float64) {
	if !f.set {
		f.v, f.set = v, true
		return
	}
	f.v = f.alpha*v + (1-f.alpha)*f.v
}
func (f *expSmoothing) Predict() (float64, bool) { return f.v, f.set }

// ---- the battery ----

// Battery runs the standard NWS forecaster set over one measurement series
// and forecasts with the historically most accurate member.
type Battery struct {
	members []member
	n       int
}

type member struct {
	f      Forecaster
	sqErr  float64 // cumulative squared prediction error
	absErr float64
	votes  int // predictions scored
}

// newBattery builds the default forecaster battery.
func newBattery() *Battery {
	fs := []Forecaster{
		&lastValue{},
		&runningMean{},
		newSlidingMean(5),
		newSlidingMean(10),
		newSlidingMean(30),
		newSlidingMedian(5),
		newSlidingMedian(15),
		&expSmoothing{alpha: 0.05},
		&expSmoothing{alpha: 0.25},
		&expSmoothing{alpha: 0.6},
	}
	b := &Battery{}
	for _, f := range fs {
		b.members = append(b.members, member{f: f})
	}
	return b
}

// Observe scores every forecaster's standing prediction against v, then
// feeds v to all of them.
func (b *Battery) Observe(v float64) {
	for i := range b.members {
		m := &b.members[i]
		if p, ok := m.f.Predict(); ok {
			d := p - v
			m.sqErr += d * d
			if d < 0 {
				d = -d
			}
			m.absErr += d
			m.votes++
		}
		m.f.Observe(v)
	}
	b.n++
}

// Forecast returns the prediction of the forecaster with the lowest mean
// squared error so far. ok is false before any measurement has arrived.
func (b *Battery) Forecast() (float64, bool) {
	bestIdx := -1
	var bestMSE float64
	for i := range b.members {
		m := &b.members[i]
		if _, ok := m.f.Predict(); !ok {
			continue
		}
		if m.votes == 0 {
			// No scoring history yet: usable but least preferred.
			if bestIdx == -1 {
				bestIdx = i
				bestMSE = 0
			}
			continue
		}
		mse := m.sqErr / float64(m.votes)
		if bestIdx == -1 || b.members[bestIdx].votes == 0 || mse < bestMSE {
			bestIdx, bestMSE = i, mse
		}
	}
	if bestIdx == -1 {
		return 0, false
	}
	return b.members[bestIdx].f.Predict()
}

// Observations reports how many measurements the battery has seen.
func (b *Battery) Observations() int { return b.n }

// BestRMSE reports the root-mean-square prediction error of the currently
// selected forecaster — how much to trust a Forecast. ok is false until a
// forecaster has been scored at least once.
func (b *Battery) BestRMSE() (float64, bool) {
	bestIdx := -1
	var bestMSE float64
	for i := range b.members {
		m := &b.members[i]
		if m.votes == 0 {
			continue
		}
		mse := m.sqErr / float64(m.votes)
		if bestIdx == -1 || mse < bestMSE {
			bestIdx, bestMSE = i, mse
		}
	}
	if bestIdx == -1 {
		return 0, false
	}
	return math.Sqrt(bestMSE), true
}
