package nws

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/vclock"
)

func TestForecastersWarmup(t *testing.T) {
	b := newBattery()
	if _, ok := b.Forecast(); ok {
		t.Fatal("empty battery should not forecast")
	}
	b.Observe(10)
	v, ok := b.Forecast()
	if !ok {
		t.Fatal("battery with one observation should forecast")
	}
	if v != 10 {
		t.Fatalf("first forecast = %v, want 10", v)
	}
}

func TestBatteryConstantSeries(t *testing.T) {
	b := newBattery()
	for i := 0; i < 50; i++ {
		b.Observe(42)
	}
	v, ok := b.Forecast()
	if !ok || math.Abs(v-42) > 1e-9 {
		t.Fatalf("constant series forecast = %v", v)
	}
}

func TestBatteryPicksLastValueForTrend(t *testing.T) {
	// On a steadily rising series, last-value tracks far better than the
	// running mean; selection should not pick the running mean.
	b := newBattery()
	for i := 0; i < 200; i++ {
		b.Observe(float64(i))
	}
	name, ok := b.BestForecaster()
	if !ok {
		t.Fatal("no forecaster selected")
	}
	if name == "mean" {
		t.Fatalf("selection picked running mean on a trending series")
	}
	v, _ := b.Forecast()
	if v < 150 {
		t.Fatalf("trend forecast = %v, want near 199", v)
	}
}

func TestBatteryMedianResistsOutliers(t *testing.T) {
	// A series that is 10 with occasional spikes to 1000: the median
	// forecaster should have the lowest error and the forecast should stay
	// near 10, not near the mean (~43).
	b := newBattery()
	for i := 0; i < 90; i++ {
		if i%30 == 29 {
			b.Observe(1000)
		} else {
			b.Observe(10)
		}
	}
	v, ok := b.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if v > 100 {
		t.Fatalf("outlier-robust forecast = %v, want near 10", v)
	}
}

func TestBatteryForecastWithinRangeProperty(t *testing.T) {
	// Forecasts are convex combinations / order statistics of history, so
	// they must lie within [min, max] of the observations.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		b := newBattery()
		min, max := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			v := float64(r)
			b.Observe(v)
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		v, ok := b.Forecast()
		return ok && v >= min-1e-9 && v <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRecordForecast(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 11, 0, 0, 0, 0, time.UTC))
	s := NewService(clk)
	if _, ok := s.Forecast("UTK", "d1", Bandwidth); ok {
		t.Fatal("forecast without data should fail")
	}
	for i := 0; i < 10; i++ {
		s.Record("UTK", "d1", Bandwidth, 95)
		clk.Advance(time.Second)
	}
	v, ok := s.Forecast("UTK", "d1", Bandwidth)
	if !ok || math.Abs(v-95) > 1e-9 {
		t.Fatalf("forecast = %v, %v", v, ok)
	}
	// Series are keyed by (src,dst,res): different src is independent.
	if _, ok := s.Forecast("UCSD", "d1", Bandwidth); ok {
		t.Fatal("different src should be a different series")
	}
	if _, ok := s.Forecast("UTK", "d1", Latency); ok {
		t.Fatal("different resource should be a different series")
	}
	last, ok := s.Last("UTK", "d1", Bandwidth)
	if !ok || last.Value != 95 || last.Src != "UTK" {
		t.Fatalf("last = %+v", last)
	}
	if s.SeriesCount() != 1 {
		t.Fatalf("series count = %d", s.SeriesCount())
	}
}

func TestSensorProbesRealDepot(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("nws-test"),
		Capacity: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	svc := NewService(nil)
	client := ibp.NewClient()
	sensor := NewSensor(svc, client, nil, "UTK", 32<<10)
	if err := sensor.ProbeDepot(d.Addr()); err != nil {
		t.Fatal(err)
	}
	bw, ok := svc.Forecast("UTK", d.Addr(), Bandwidth)
	if !ok || bw <= 0 {
		t.Fatalf("bandwidth forecast = %v, %v", bw, ok)
	}
	lat, ok := svc.Forecast("UTK", d.Addr(), Latency)
	if !ok || lat < 0 {
		t.Fatalf("latency forecast = %v, %v", lat, ok)
	}
	// Probe cleanup: the scratch allocation was deleted.
	if d.AllocationCount() != 0 {
		t.Fatalf("probe leaked %d allocations", d.AllocationCount())
	}
}

func TestSensorProbeAllContinuesPastFailures(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("nws-test"),
		Capacity: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	svc := NewService(nil)
	client := ibp.NewClient(ibp.WithDialTimeout(100 * time.Millisecond))
	sensor := NewSensor(svc, client, nil, "UTK", 1024)
	err = sensor.ProbeAll([]string{"127.0.0.1:1", d.Addr()})
	if err == nil {
		t.Fatal("expected error from unreachable depot")
	}
	// The reachable depot was still measured.
	if _, ok := svc.Forecast("UTK", d.Addr(), Bandwidth); !ok {
		t.Fatal("reachable depot should have been probed despite earlier failure")
	}
}

func TestBestRMSE(t *testing.T) {
	b := newBattery()
	if _, ok := b.BestRMSE(); ok {
		t.Fatal("no RMSE before scoring")
	}
	for i := 0; i < 40; i++ {
		b.Observe(100)
	}
	rmse, ok := b.BestRMSE()
	if !ok || rmse > 1e-9 {
		t.Fatalf("constant series RMSE = %v, %v", rmse, ok)
	}
	// A noisy series has nonzero error.
	n := newBattery()
	for i := 0; i < 40; i++ {
		n.Observe(float64(100 + (i%2)*50))
	}
	rmse, ok = n.BestRMSE()
	if !ok || rmse <= 0 {
		t.Fatalf("noisy series RMSE = %v, %v", rmse, ok)
	}
	svc := NewService(nil)
	svc.Record("a", "b", Bandwidth, 5)
	svc.Record("a", "b", Bandwidth, 5)
	if _, ok := svc.ForecastError("a", "b", Bandwidth); !ok {
		t.Fatal("service RMSE should be available")
	}
	if _, ok := svc.ForecastError("x", "y", Bandwidth); ok {
		t.Fatal("unknown series should have no RMSE")
	}
}
