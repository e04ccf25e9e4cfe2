// Package stackmon is the availability monitor daemon: a continuous
// re-run of the paper's three-day study of 14 L-Bone depots. It sweeps a
// depot set on a fixed interval — a STATUS probe per depot, optionally
// followed by an allocate/store/load/delete data round — and keeps a
// per-depot time series of availability, probe latency, and measured
// bandwidth. The series backs a Prometheus scrape surface (ObsMux) and a
// paper-style availability report (Snapshot/report.go).
package stackmon

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/slo"
	"repro/internal/vclock"
)

// Defaults for Config fields left zero.
const (
	DefInterval = 5 * time.Minute
	DefDuration = 10 * time.Minute
)

// maxSamples bounds each depot's retained sample ring: two weeks at the
// default interval. Lifetime counters are exact regardless; only the
// sample detail rotates.
const maxSamples = 4096

// Config parameterizes a Monitor.
type Config struct {
	// Client performs the IBP operations. Required.
	Client *ibp.Client
	// Depots is the static depot address set to monitor.
	Depots []string
	// Discover, when set, is called at the start of every sweep and its
	// result is merged with Depots — e.g. an L-Bone registry query, so
	// newly registered depots join the study without a restart.
	Discover func() []string
	// Interval between sweeps (default 5m, the paper's probe cadence).
	Interval time.Duration
	// Payload is the data-round size in bytes. Zero disables the
	// allocate/store/load/delete round; sweeps are then probe-only.
	Payload int
	// Duration is the lifetime requested for data-round allocations
	// (default 10m; the depot reaps stragglers on expiry anyway).
	Duration time.Duration
	// Clock drives sweep timing (default the system clock). Simulated
	// studies pass a vclock.Virtual.
	Clock vclock.Clock
	// Logger receives one record per depot state change (default:
	// discard).
	Logger *slog.Logger
	// SLO, when set, receives every sweep result as SLI samples — probe
	// liveness as depot_availability, data rounds as download_success —
	// and its burn-rate rules are evaluated at the end of each sweep, so
	// the monitor that reproduces the paper's study also produces its
	// alert verdicts.
	SLO *slo.Engine
}

// Sample is one depot observation from one sweep.
type Sample struct {
	Time         time.Time     `json:"time"`
	Up           bool          `json:"up"`
	ProbeLatency time.Duration `json:"probe_latency_ns"`
	DataAttempt  bool          `json:"data_attempt,omitempty"`
	DataOK       bool          `json:"data_ok,omitempty"`
	Mbps         float64       `json:"mbps,omitempty"`
	Err          string        `json:"err,omitempty"`
}

// series is the retained state for one depot.
type series struct {
	samples *ring.Ring[Sample]

	// Lifetime counters (exact even after the ring rotates).
	sweeps       int
	up           int
	dataAttempts int
	dataOK       int
	probeSum     time.Duration // over up probes
	mbpsSum      float64       // over successful data rounds
	lastUp       bool
	lastErr      string
}

func (s *series) add(sm Sample) {
	s.samples.Push(sm)
	s.sweeps++
	if sm.Up {
		s.up++
		s.probeSum += sm.ProbeLatency
	}
	if sm.DataAttempt {
		s.dataAttempts++
		if sm.DataOK {
			s.dataOK++
			s.mbpsSum += sm.Mbps
		}
	}
	s.lastUp = sm.Up
	s.lastErr = sm.Err
}

// Monitor runs the availability study.
type Monitor struct {
	cfg     Config
	clock   vclock.Clock
	mu      sync.Mutex
	byDepot map[string]*series
	started time.Time
	lastRun time.Time
	sweeps  int
}

// New builds a Monitor. Config.Client is required.
func New(cfg Config) (*Monitor, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("stackmon: Config.Client is required")
	}
	if len(cfg.Depots) == 0 && cfg.Discover == nil {
		return nil, fmt.Errorf("stackmon: no depots to monitor (set Depots or Discover)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefInterval
	}
	if cfg.Duration <= 0 {
		cfg.Duration = DefDuration
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	clk := cfg.Clock
	if clk == nil {
		clk = vclock.Real()
	}
	return &Monitor{
		cfg:     cfg,
		clock:   clk,
		byDepot: map[string]*series{},
		started: clk.Now(),
	}, nil
}

// Interval returns the sweep cadence in effect.
func (m *Monitor) Interval() time.Duration { return m.cfg.Interval }

// depotSet is the static set in its given order, then each discovered
// depot not already in it, in discovery order (the L-Bone lists by name).
// A sweep probes in this order, so which depot draws which link jitter
// goes by the operator's list and depot names, never by address.
func (m *Monitor) depotSet() []string {
	seen := map[string]bool{}
	var out []string
	add := func(addr string) {
		if addr != "" && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	for _, a := range m.cfg.Depots {
		add(a)
	}
	if m.cfg.Discover != nil {
		for _, a := range m.cfg.Discover() {
			add(a)
		}
	}
	return out
}

// Sweep probes every depot once and records the results. It runs the
// depots sequentially — the paper's monitor did the same, and sequential
// sweeps keep the virtual-clock variant deterministic.
func (m *Monitor) Sweep() {
	depots := m.depotSet()
	for _, addr := range depots {
		sm := m.probeOne(addr)
		m.record(addr, sm)
	}
	m.mu.Lock()
	m.sweeps++
	m.lastRun = m.clock.Now()
	m.mu.Unlock()
	m.cfg.SLO.Evaluate()
}

// probeOne measures one depot: STATUS for liveness and latency, then the
// optional data round.
func (m *Monitor) probeOne(addr string) Sample {
	sm := Sample{Time: m.clock.Now()}
	start := m.clock.Now()
	_, err := m.cfg.Client.Status(addr)
	sm.ProbeLatency = m.clock.Now().Sub(start)
	if err != nil {
		sm.Err = err.Error()
		return sm
	}
	sm.Up = true
	if m.cfg.Payload <= 0 {
		return sm
	}
	sm.DataAttempt = true
	mbps, err := m.dataRound(addr)
	if err != nil {
		sm.Err = err.Error()
		return sm
	}
	sm.DataOK = true
	sm.Mbps = mbps
	return sm
}

// dataRound exercises the full store stack against one depot: allocate,
// store a random payload, read it back, verify, delete. Returns the
// measured download bandwidth in Mbit/s.
func (m *Monitor) dataRound(addr string) (float64, error) {
	payload := make([]byte, m.cfg.Payload)
	if _, err := rand.Read(payload); err != nil {
		return 0, fmt.Errorf("payload: %w", err)
	}
	caps, err := m.cfg.Client.Allocate(addr, int64(len(payload)), m.cfg.Duration, ibp.Soft)
	if err != nil {
		return 0, fmt.Errorf("allocate: %w", err)
	}
	// Best-effort cleanup; expiry reaps the allocation if DELETE fails.
	defer m.cfg.Client.Delete(caps.Manage)
	if _, err := m.cfg.Client.Store(caps.Write, payload); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	start := m.clock.Now()
	got, err := m.cfg.Client.Load(caps.Read, 0, int64(len(payload)))
	elapsed := m.clock.Now().Sub(start)
	if err != nil {
		return 0, fmt.Errorf("load: %w", err)
	}
	if !bytes.Equal(got, payload) {
		return 0, fmt.Errorf("load: payload mismatch (%d bytes)", len(got))
	}
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	return float64(len(payload)*8) / elapsed.Seconds() / 1e6, nil
}

// record folds one sample into the depot's series, logging transitions.
func (m *Monitor) record(addr string, sm Sample) {
	m.mu.Lock()
	s := m.byDepot[addr]
	known := s != nil
	if !known {
		s = &series{samples: ring.New[Sample](maxSamples)}
		m.byDepot[addr] = s
	}
	wasUp := s.lastUp
	s.add(sm)
	m.mu.Unlock()
	m.cfg.SLO.Record(slo.DepotAvailability, addr, sm.Up)
	if sm.Up {
		m.cfg.SLO.RecordLatency(slo.DepotAvailability, addr, sm.ProbeLatency.Seconds())
	}
	if sm.DataAttempt {
		m.cfg.SLO.Record(slo.DownloadSuccess, addr, sm.DataOK)
	}
	if known && wasUp == sm.Up {
		return
	}
	if sm.Up {
		m.cfg.Logger.Info("depot up", "depot", addr)
	} else {
		m.cfg.Logger.Warn("depot DOWN", "depot", addr, "err", sm.Err)
	}
}

// Availability returns addr's measured availability fraction over the
// retained series — the per-depot cell of the paper's §3 table — and
// false before any sweep has sampled the depot. The maintenance fleet
// consumes this as a risk-scoring input (a file whose copies sit on
// depots that keep failing probes is closer to loss than its mapping
// count suggests).
func (m *Monitor) Availability(addr string) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.byDepot[addr]
	if s == nil || s.sweeps == 0 {
		return 0, false
	}
	return float64(s.up) / float64(s.sweeps), true
}

// Run sweeps on the configured interval until stop is closed. The first
// sweep runs immediately.
func (m *Monitor) Run(stop <-chan struct{}) {
	for {
		m.Sweep()
		select {
		case <-stop:
			return
		case <-m.clock.After(m.cfg.Interval):
		}
	}
}

// DepotStudy summarizes one depot's series — one row of the paper's
// availability table.
type DepotStudy struct {
	Addr             string        `json:"addr"`
	Sweeps           int           `json:"sweeps"`
	Up               int           `json:"up"`
	Availability     float64       `json:"availability"`
	DataAttempts     int           `json:"data_attempts"`
	DataOK           int           `json:"data_ok"`
	DownloadSuccess  float64       `json:"download_success"`
	MeanProbeLatency time.Duration `json:"mean_probe_latency_ns"`
	MeanMbps         float64       `json:"mean_mbps"`
	LastUp           bool          `json:"last_up"`
	LastErr          string        `json:"last_err,omitempty"`
	Samples          []Sample      `json:"samples,omitempty"`
}

// Study is a point-in-time snapshot of the whole monitoring run.
type Study struct {
	Started  time.Time     `json:"started"`
	Ended    time.Time     `json:"ended"`
	Interval time.Duration `json:"interval_ns"`
	Sweeps   int           `json:"sweeps"`
	Depots   []DepotStudy  `json:"depots"`
}

// Snapshot summarizes the run so far. When withSamples is true each depot
// row carries its retained sample detail (for report files; the /metrics
// path leaves it off).
func (m *Monitor) Snapshot(withSamples bool) Study {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Study{
		Started:  m.started,
		Ended:    m.lastRun,
		Interval: m.cfg.Interval,
		Sweeps:   m.sweeps,
	}
	if st.Ended.IsZero() {
		st.Ended = st.Started
	}
	addrs := make([]string, 0, len(m.byDepot))
	for a := range m.byDepot {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		s := m.byDepot[a]
		ds := DepotStudy{
			Addr:         a,
			Sweeps:       s.sweeps,
			Up:           s.up,
			DataAttempts: s.dataAttempts,
			DataOK:       s.dataOK,
			LastUp:       s.lastUp,
			LastErr:      s.lastErr,
		}
		if s.sweeps > 0 {
			ds.Availability = float64(s.up) / float64(s.sweeps)
		}
		if s.dataAttempts > 0 {
			ds.DownloadSuccess = float64(s.dataOK) / float64(s.dataAttempts)
		}
		if s.up > 0 {
			ds.MeanProbeLatency = s.probeSum / time.Duration(s.up)
		}
		if s.dataOK > 0 {
			ds.MeanMbps = s.mbpsSum / float64(s.dataOK)
		}
		if withSamples {
			ds.Samples = s.samples.Last(nil, 0)
		}
		st.Depots = append(st.Depots, ds)
	}
	return st
}
