// Package tsdb is a bounded, clock-injected in-memory time-series store
// for the fleet observability plane. The paper's §3 availability study is
// a time-series argument — uptime measured over weeks, not a point-in-time
// snapshot — and the obsd aggregator needs the same shape: every sweep
// appends one sample per retained series, and the query layer answers
// rate/increase/delta/avg_over_time/quantile_over_time over any trailing
// window of the retained history.
//
// Design rules, in the spirit of the rest of the stack:
//
//   - Bounded everywhere. Each series is a ring of maxSamples points and
//     the store caps distinct series at maxSeries. Overwrites and refused
//     series are counted, never hidden — /fleet/series turns those
//     counters into drop accounting the way obs_ring_dropped_total does
//     for the event rings.
//   - Clock-injected. Timestamps come from the caller (the aggregator's
//     vclock), so a virtual-time harness retains weeks of history in
//     milliseconds and queries are reproducible.
//   - Counter-resets are data. A daemon restart makes its counters start
//     over; a window function that sees the value drop treats it as a
//     reset (the post-reset value is all new increase), never as a
//     negative rate. Resets are also counted per series, because "this
//     member restarted twice during the soak" is itself a finding.
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
)

// Label is one name="value" pair on a series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Point is one retained observation.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Sample is one observation offered to Append.
type Sample struct {
	Name   string
	Labels []Label // must be canonical (sorted by name); Key assumes it
	Value  float64
}

// Key renders the series identity: name plus the canonical label block.
func (s Sample) Key() string { return SeriesKey(s.Name, s.Labels) }

// SeriesKey renders name{a="b",...} with labels in the given order —
// callers canonicalize (sort by label name) before interning.
func SeriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// The store's bounds. maxSamples caps each series ring: at obsd's default
// 15s sweep that retains ~8.5 hours; on a virtual clock it is whatever the
// harness makes of it. maxSeries caps the distinct series the store will
// intern: samples for series beyond the cap are refused and counted.
const (
	maxSamples = 2048
	maxSeries  = 16384
)

// Config parameterizes a Store.
type Config struct {
	// Retention advisorily clamps query windows (default 24h): a query
	// window longer than Retention is truncated to it, so answers never
	// silently pretend to cover history the rings cannot hold.
	Retention time.Duration
}

// series is one retained ring.
type series struct {
	name   string
	labels []Label
	points *ring.Ring[Point]

	resets  uint64  // counter-reset appends observed (value went backwards)
	lastV   float64 // most recent appended value
	hasLast bool
}

// Store holds bounded per-series rings. Safe for concurrent use.
type Store struct {
	mu            sync.Mutex
	cfg           Config
	series        map[string]*series
	refusedSeries uint64 // appends refused by the series cap
}

// New builds a Store, applying defaults for zero fields.
func New(cfg Config) *Store {
	if cfg.Retention <= 0 {
		cfg.Retention = 24 * time.Hour
	}
	return &Store{cfg: cfg, series: make(map[string]*series)}
}

// Retention returns the store's advisory retention window.
func (st *Store) Retention() time.Duration { return st.cfg.Retention }

// Append records samples at time t. Counter resets (a sample's value
// below the series' previous value) are detected and counted here, at
// ingest, so every window function downstream shares one verdict.
func (st *Store) Append(t time.Time, samples []Sample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sm := range samples {
		k := sm.Key()
		s := st.series[k]
		if s == nil {
			if len(st.series) >= maxSeries {
				st.refusedSeries++
				continue
			}
			s = &series{
				name:   sm.Name,
				labels: append([]Label(nil), sm.Labels...),
				points: ring.New[Point](maxSamples),
			}
			st.series[k] = s
		}
		if s.hasLast && sm.Value < s.lastV {
			s.resets++
		}
		s.lastV, s.hasLast = sm.Value, true
		s.points.Push(Point{T: t, V: sm.Value})
	}
}

// SeriesView is one series' snapshot for selection and inventory.
type SeriesView struct {
	Name    string    `json:"name"`
	Labels  []Label   `json:"labels,omitempty"`
	Points  []Point   `json:"-"`
	Samples int       `json:"samples"`
	Dropped uint64    `json:"dropped"` // points overwritten by the bounded ring
	Resets  uint64    `json:"resets"`  // counter resets observed at ingest
	First   time.Time `json:"first,omitempty"`
	Last    time.Time `json:"last,omitempty"`
}

// matches reports whether the series carries every matcher label with the
// exact value (subset match: extra series labels are fine).
func (s *series) matches(matchers []Label) bool {
	for _, m := range matchers {
		ok := false
		for _, l := range s.labels {
			if l.Name == m.Name {
				ok = l.Value == m.Value
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Select snapshots every series with the given name whose labels carry
// all matchers, sorted by series key for deterministic output.
func (st *Store) Select(name string, matchers []Label) []SeriesView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.selectLocked(name, matchers)
}

// Range returns the points of the one series with the given key (as
// SeriesKey renders it) with from <= T <= to, oldest first: the window
// read of a caller that knows its series, without Select's scan. An
// unknown key yields nil.
func (st *Store) Range(key string, from, to time.Time) []Point {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s := st.series[key]; s != nil {
		return clip(s.points.Last(nil, 0), from, to)
	}
	return nil
}

func (st *Store) selectLocked(name string, matchers []Label) []SeriesView {
	var out []SeriesView
	for _, s := range st.series {
		if s.name != name || !s.matches(matchers) {
			continue
		}
		out = append(out, st.viewLocked(s))
	}
	sort.Slice(out, func(i, j int) bool {
		return SeriesKey(out[i].Name, out[i].Labels) < SeriesKey(out[j].Name, out[j].Labels)
	})
	return out
}

func (st *Store) viewLocked(s *series) SeriesView {
	pts := s.points.Last(nil, 0)
	v := SeriesView{
		Name:    s.name,
		Labels:  append([]Label(nil), s.labels...),
		Points:  pts,
		Samples: len(pts),
		Dropped: s.points.Dropped(),
		Resets:  s.resets,
	}
	if len(pts) > 0 {
		v.First, v.Last = pts[0].T, pts[len(pts)-1].T
	}
	return v
}

// Inventory is the /fleet/series document body: every retained series
// (without points) plus store-level drop accounting.
type Inventory struct {
	Series        []SeriesView `json:"series"`
	SeriesCount   int          `json:"series_count"`
	MaxSeries     int          `json:"max_series"`
	MaxSamples    int          `json:"max_samples"`
	Retention     string       `json:"retention"`
	RefusedSeries uint64       `json:"refused_series"` // appends refused by the series cap
	DroppedPoints uint64       `json:"dropped_points"` // ring overwrites across all series
	Resets        uint64       `json:"resets"`         // counter resets across all series
}

// Inventory snapshots the store's series (points elided), sorted by key.
func (st *Store) Inventory() Inventory {
	st.mu.Lock()
	defer st.mu.Unlock()
	inv := Inventory{
		Series:        make([]SeriesView, 0, len(st.series)),
		SeriesCount:   len(st.series),
		MaxSeries:     maxSeries,
		MaxSamples:    maxSamples,
		Retention:     st.cfg.Retention.String(),
		RefusedSeries: st.refusedSeries,
	}
	for _, s := range st.series {
		v := st.viewLocked(s)
		v.Points = nil
		inv.Series = append(inv.Series, v)
		inv.DroppedPoints += s.points.Dropped()
		inv.Resets += s.resets
	}
	sort.Slice(inv.Series, func(i, j int) bool {
		return SeriesKey(inv.Series[i].Name, inv.Series[i].Labels) < SeriesKey(inv.Series[j].Name, inv.Series[j].Labels)
	})
	return inv
}
