package obs

// The flight recorder: a bounded per-process ring retaining the recent
// past across every signal source — log records, IBP op events, hedge
// events, depot server spans, breaker-state transitions, forecast-error
// samples — in one time-ordered stream keyed by trace ID. While everything
// is healthy the ring just rotates; when a transfer fails, a tool exits
// non-zero, or a depot handler panics, the retained window is cut into a
// postmortem bundle (see postmortem.go) that tells the story of the
// failure without anyone having had to watch it happen.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ring"
)

// EntryKind classifies one flight-recorder entry by its signal source.
type EntryKind string

// Entry kinds.
const (
	KindLog      EntryKind = "log"      // a structured log record
	KindEvent    EntryKind = "event"    // an IBP operation event
	KindHedge    EntryKind = "hedge"    // a transfer-engine hedge event
	KindSpan     EntryKind = "span"     // a depot-reported server span
	KindBreaker  EntryKind = "breaker"  // a health-scoreboard state transition
	KindForecast EntryKind = "forecast" // an NWS forecast-vs-measured sample
	KindAlert    EntryKind = "alert"    // an SLO burn-rate alert transition
)

// Entry is one retained observation. Fields are populated per kind; the
// JSON encoding is the line format inside postmortem bundles.
type Entry struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      EntryKind `json:"kind"`
	Trace     string    `json:"trace,omitempty"`
	Depot     string    `json:"depot,omitempty"`
	Verb      string    `json:"verb,omitempty"`
	Level     string    `json:"level,omitempty"`
	Msg       string    `json:"msg,omitempty"`
	Outcome   string    `json:"outcome,omitempty"`
	Err       string    `json:"err,omitempty"`
	Bytes     int64     `json:"bytes,omitempty"`
	LatencyNS int64     `json:"latency_ns,omitempty"`
	Attrs     []string  `json:"attrs,omitempty"`
}

// DefaultRecorderSize is the entry capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultRecorderSize = 512

// FlightRecorder retains the last N entries. Safe for concurrent use; it
// implements Observer so it can tee with a Collector on the IBP event
// stream, and the slog tee handler feeds it log records.
type FlightRecorder struct {
	mu      sync.Mutex
	entries *ring.Ring[Entry]
	seq     uint64
	bundles map[string]Bundle  // last written bundle per trace, for /postmortem
	order   *ring.Ring[string] // bundle insertion order; evicts from bundles
}

// maxStoredBundles bounds the retained postmortem bundles per process.
const maxStoredBundles = 16

// NewFlightRecorder builds a recorder keeping the last size entries.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &FlightRecorder{
		entries: ring.New[Entry](size),
		bundles: make(map[string]Bundle),
		order:   ring.New[string](maxStoredBundles),
	}
}

// Add retains one entry.
func (fr *FlightRecorder) Add(e Entry) {
	fr.mu.Lock()
	fr.seq++
	e.Seq = fr.seq
	fr.entries.Push(e)
	fr.mu.Unlock()
}

// Dropped reports how many entries the ring has overwritten — how much of
// the recent past a postmortem bundle can no longer tell.
func (fr *FlightRecorder) Dropped() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.entries.Dropped()
}

// RingMetrics exposes the recorder's overflow counter, labeled ring=flight
// to sit beside the Collector's ring=events series on the same scrape.
func (fr *FlightRecorder) RingMetrics() []Metric {
	return []Metric{RingDropped("flight", fr.Dropped())}
}

// RingDropped is the obs_ring_dropped_total sample for one bounded ring:
// how many entries it overwrote before they aged out.
func RingDropped(ring string, n uint64) Metric {
	return Metric{
		Name: "obs_ring_dropped_total",
		Help: "Entries overwritten before aging out, per bounded ring.",
		Type: "counter", Value: float64(n),
		Labels: []Label{{"ring", ring}},
	}
}

// Record implements Observer: every IBP op event (and HEDGE event — the
// transfer engine shares the stream) is retained, and a depot-returned
// server span becomes its own entry so the bundle carries both sides.
func (fr *FlightRecorder) Record(ev Event) {
	kind := KindEvent
	if ev.Verb == "HEDGE" {
		kind = KindHedge
	}
	fr.Add(Entry{
		Time: ev.Time, Kind: kind, Trace: ev.Trace, Depot: ev.Depot,
		Verb: ev.Verb, Outcome: ev.Outcome, Err: ev.Err, Bytes: ev.Bytes,
		LatencyNS: ev.Latency.Nanoseconds(), Msg: ev.Note,
	})
	if ss := ev.Server; ss != nil {
		fr.Add(Entry{
			Time: ev.Time, Kind: KindSpan, Trace: ev.Trace, Depot: ev.Depot,
			Verb: ev.Verb, Bytes: ss.Bytes, LatencyNS: ss.Total.Nanoseconds(),
			Msg: fmt.Sprintf("server span %s: queue %s backend %s", ss.SpanID, ss.Queue, ss.Backend),
		})
	}
}

// BreakerTransition retains one health-scoreboard state change. The health
// package calls this with its lock held, so it must stay allocation-light
// and must not call back into the scoreboard.
func (fr *FlightRecorder) BreakerTransition(addr, from, to string, at time.Time) {
	fr.Add(Entry{
		Time: at, Kind: KindBreaker, Depot: addr,
		Msg: "breaker " + from + " -> " + to,
	})
}

// Recent returns up to n of the most recent entries, oldest first. n <= 0
// returns everything retained.
func (fr *FlightRecorder) Recent(n int) []Entry {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.entries.Last(nil, n)
}

// ForTrace returns the retained entries recorded under traceID, oldest
// first. Untraced entries (daemon-level logs, breaker transitions) are
// excluded; bundle construction folds those back in separately.
func (fr *FlightRecorder) ForTrace(traceID string) []Entry {
	var out []Entry
	for _, e := range fr.Recent(0) {
		if e.Trace == traceID {
			out = append(out, e)
		}
	}
	return out
}

// Total reports how many entries have ever been retained.
func (fr *FlightRecorder) Total() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.seq
}

// Tee fans one event stream out to several observers; nils are skipped.
// Used to feed the same IBP op stream to the trace collector, the flight
// recorder, and the SLO engine's adapter at once.
func Tee(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	return teeObserver(live)
}

type teeObserver []Observer

// Record implements Observer.
func (t teeObserver) Record(e Event) {
	for _, o := range t {
		o.Record(e)
	}
}
