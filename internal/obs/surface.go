package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"
)

// Surface describes one daemon's HTTP surface. Every daemon in the stack
// serves the same shape, built by Mux: /metrics (the component's samples,
// then its SLO engine's, build_info and uptime, ring drops and the Go
// runtime, then any raw tail text), /healthz, and — when their source is
// set — /slo, /postmortem/, the component's own routes (/trace/, /report,
// obsd's /fleet/ pages) and /debug/pprof/.
type Surface struct {
	// Component names the daemon in build_info and on-demand postmortems.
	Component string
	// Now is the daemon's clock (nil = wall time) and Started its start,
	// for process_uptime_seconds.
	Now     func() time.Time
	Started time.Time
	// Metrics renders the component's own samples.
	Metrics func() []Metric
	// SLO, when set, adds its samples to /metrics and serves /slo.
	SLO SLOSource
	// Healthy backs /healthz (nil = always healthy).
	Healthy func() error
	// Recorder, when set, adds its ring drops to /metrics and serves
	// /postmortem/<trace>.
	Recorder *FlightRecorder
	// Routes mounts the component's own handlers by pattern.
	Routes map[string]http.Handler
	// Tail appends raw exposition text after the samples, in order: a
	// registry client's registry_client_* series, obsd's fleet_ aggregates.
	Tail []func(*strings.Builder)
	// Pprof mounts the net/http/pprof handlers. Gate it behind a flag:
	// profiling endpoints expose heap contents.
	Pprof bool
}

// SLOSource is what a Surface needs of an SLO engine (slo.Engine, which
// sits above this package).
type SLOSource interface {
	Metrics() []Metric
	Handler() http.Handler
}

// Exposition renders the /metrics body.
func (s Surface) Exposition() string {
	var ms []Metric
	if s.Metrics != nil {
		ms = s.Metrics()
	}
	if s.SLO != nil {
		ms = append(ms, s.SLO.Metrics()...)
	}
	ms = append(ms, ProcessMetrics(s.Component, s.Now, s.Started)...)
	if s.Recorder != nil {
		ms = append(ms, s.Recorder.RingMetrics()...)
	}
	ms = append(ms, RuntimeMetrics()...)
	var b strings.Builder
	WriteMetrics(&b, ms)
	for _, tail := range s.Tail {
		tail(&b)
	}
	return b.String()
}

// Mux builds the surface's HTTP handler.
func (s Surface) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", expositionHandler(s.Exposition))
	mux.Handle("/healthz", HealthzHandler(s.Healthy))
	if s.SLO != nil {
		mux.Handle("/slo", s.SLO.Handler())
	}
	if s.Recorder != nil {
		now := s.Now
		if now == nil {
			now = time.Now
		}
		mux.Handle("/postmortem/", PostmortemHandler(s.Recorder, s.Component, now))
	}
	for pattern, h := range s.Routes {
		mux.Handle(pattern, h)
	}
	if s.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// RuntimeMetrics samples the Go runtime: goroutine count, heap usage, and
// GC activity, so a stuck daemon can be diagnosed without a debugger.
func RuntimeMetrics() []Metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []Metric{
		{Name: "go_goroutines", Help: "Live goroutines.", Type: "gauge",
			Value: float64(runtime.NumGoroutine())},
		{Name: "go_memstats_heap_alloc_bytes", Help: "Heap bytes allocated and in use.", Type: "gauge",
			Value: float64(ms.HeapAlloc)},
		{Name: "go_memstats_heap_sys_bytes", Help: "Heap bytes obtained from the OS.", Type: "gauge",
			Value: float64(ms.HeapSys)},
		{Name: "go_memstats_heap_objects", Help: "Live heap objects.", Type: "gauge",
			Value: float64(ms.HeapObjects)},
		{Name: "go_gc_cycles_total", Help: "Completed GC cycles.", Type: "counter",
			Value: float64(ms.NumGC)},
		{Name: "go_gc_pause_seconds_total", Help: "Cumulative GC stop-the-world pause time.", Type: "counter",
			Value: float64(ms.PauseTotalNs) / 1e9},
	}
}
