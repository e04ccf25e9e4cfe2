package obs

// NWS forecast error as a first-class signal. The paper's NWS layer steers
// depot selection with bandwidth forecasts; this tracker closes the loop by
// comparing each forecast against the bandwidth actually measured on the
// transfer it steered, per (source, depot) pair. The absolute error is
// exported as nws_forecast_abs_error and the recent samples ride along in
// postmortem bundles, so "the forecast was wrong" is a visible verdict
// rather than a guess.

import (
	"sync"
	"time"

	"repro/internal/ring"
)

// ForecastSample is one predicted-vs-measured bandwidth comparison.
type ForecastSample struct {
	Src       string    `json:"src"`
	Dst       string    `json:"dst"`
	Predicted float64   `json:"predicted_mbps"`
	Measured  float64   `json:"measured_mbps"`
	AbsError  float64   `json:"abs_error_mbps"`
	Time      time.Time `json:"time"`
}

// maxForecastRecent bounds the retained sample ring.
const maxForecastRecent = 128

// pairKey identifies one (source site, depot) forecast cell.
type pairKey struct{ src, dst string }

// pairStats accumulates one cell.
type pairStats struct {
	last   ForecastSample
	count  int64
	sumAbs float64
}

// ForecastTracker accumulates forecast-error samples per depot pair.
// Safe for concurrent use.
type ForecastTracker struct {
	mu     sync.Mutex
	pairs  map[pairKey]*pairStats
	recent *ring.Ring[ForecastSample]
	rec    *FlightRecorder
}

// NewForecastTracker builds a tracker; rec may be nil (samples are then
// only available via Metrics/Recent, not in flight-recorder timelines).
func NewForecastTracker(rec *FlightRecorder) *ForecastTracker {
	return &ForecastTracker{
		pairs:  make(map[pairKey]*pairStats),
		recent: ring.New[ForecastSample](maxForecastRecent),
		rec:    rec,
	}
}

// Observe records one comparison for the src→dst pair.
func (ft *ForecastTracker) Observe(src, dst string, predicted, measured float64, at time.Time) {
	s := ForecastSample{
		Src: src, Dst: dst, Predicted: predicted, Measured: measured, Time: at,
	}
	s.AbsError = predicted - measured
	if s.AbsError < 0 {
		s.AbsError = -s.AbsError
	}
	ft.mu.Lock()
	k := pairKey{src, dst}
	ps := ft.pairs[k]
	if ps == nil {
		ps = &pairStats{}
		ft.pairs[k] = ps
	}
	ps.last = s
	ps.count++
	ps.sumAbs += s.AbsError
	ft.recent.Push(s)
	ft.mu.Unlock()
	if ft.rec != nil {
		ft.rec.Add(Entry{
			Time: at, Kind: KindForecast, Depot: dst,
			Msg: "forecast vs measured bandwidth",
			Attrs: []string{
				"src=" + src,
				"predicted_mbps=" + formatValue(predicted),
				"measured_mbps=" + formatValue(measured),
				"abs_error_mbps=" + formatValue(s.AbsError),
			},
		})
	}
}

// Recent returns up to the last maxForecastRecent samples, oldest first.
func (ft *ForecastTracker) Recent() []ForecastSample {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.recent.Last(nil, 0)
}

// RecentFor returns the retained samples whose destination depot is in
// addrs (used to scope a postmortem bundle to the depots it touched).
func (ft *ForecastTracker) RecentFor(addrs map[string]bool) []ForecastSample {
	var out []ForecastSample
	for _, s := range ft.Recent() {
		if addrs[s.Dst] {
			out = append(out, s)
		}
	}
	return out
}

// Metrics renders the tracker as Prometheus series: the latest absolute
// error and the lifetime mean per pair, plus a sample counter.
func (ft *ForecastTracker) Metrics() []Metric {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []Metric
	for k, ps := range ft.pairs {
		src, dst := Label{Name: "src", Value: k.src}, Label{Name: "dst", Value: k.dst}
		out = append(out,
			Gauge("nws_forecast_abs_error",
				"Absolute error (Mbps) of the latest NWS bandwidth forecast vs the measured transfer, per depot pair.",
				ps.last.AbsError, src, dst),
			Gauge("nws_forecast_abs_error_mean", "Mean absolute forecast error (Mbps) over all samples for the depot pair.",
				ps.sumAbs/float64(ps.count), src, dst),
			Counter("nws_forecast_samples_total", "Forecast-vs-measured comparisons recorded per depot pair.",
				ps.count, src, dst),
		)
	}
	return out
}
