package nws

import (
	"sync"
	"time"

	"repro/internal/vclock"
)

// Resource names a measured quantity.
type Resource string

// Measured resources.
const (
	// Bandwidth is end-to-end throughput in megabits per second.
	Bandwidth Resource = "bandwidth"
	// Latency is round-trip time in milliseconds.
	Latency Resource = "latency"
)

// seriesKey identifies one measurement series.
type seriesKey struct {
	src, dst string
	res      Resource
}

// Measurement is one observation of a resource between two endpoints.
type Measurement struct {
	Src   string    // measuring host (client site)
	Dst   string    // measured host (depot address or name)
	Res   Resource  // what was measured
	Value float64   // Mbit/s for bandwidth, ms for latency
	Time  time.Time // when
}

// Service is an NWS instance: the latest measurement plus per-series
// forecaster batteries. Safe for concurrent use.
type Service struct {
	mu     sync.Mutex
	clock  vclock.Clock
	series map[seriesKey]*series
}

type series struct {
	battery *Battery
	last    Measurement
}

// NewService creates an NWS service on clock (the real clock when nil).
func NewService(clock vclock.Clock) *Service {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Service{clock: clock, series: make(map[seriesKey]*series)}
}

// Record stores a measurement and updates the series forecast state.
func (s *Service) Record(src, dst string, res Resource, value float64) {
	m := Measurement{Src: src, Dst: dst, Res: res, Value: value, Time: s.clock.Now()}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := seriesKey{src, dst, res}
	sr, ok := s.series[k]
	if !ok {
		sr = &series{battery: newBattery()}
		s.series[k] = sr
	}
	sr.battery.Observe(value)
	sr.last = m
}

// Forecast predicts the next value of the (src,dst,res) series. ok is false
// when no measurements exist.
func (s *Service) Forecast(src, dst string, res Resource) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[seriesKey{src, dst, res}]
	if !ok {
		return 0, false
	}
	return sr.battery.Forecast()
}

// Last returns the most recent raw measurement of the series.
func (s *Service) Last(src, dst string, res Resource) (Measurement, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[seriesKey{src, dst, res}]
	if !ok {
		return Measurement{}, false
	}
	return sr.last, true
}

// ForecastError reports the RMSE of the series' selected forecaster.
func (s *Service) ForecastError(src, dst string, res Resource) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.series[seriesKey{src, dst, res}]
	if !ok {
		return 0, false
	}
	return sr.battery.BestRMSE()
}

// SeriesCount reports how many distinct series the service tracks.
func (s *Service) SeriesCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}
