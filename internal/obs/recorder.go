package obs

// The flight recorder: a bounded per-process ring retaining the recent
// past across every signal source — log records, IBP op events, hedge
// events, a depot's server spans, breaker-state transitions, forecast-error
// samples — in one time-ordered stream keyed by trace ID. It is the one
// record of a process's traced spans: /trace/<id>, postmortem bundles and
// xnd's joined timeline all read it. While everything is healthy the ring
// just rotates; when a transfer fails, a tool exits non-zero, or a depot
// handler panics, the retained window is cut into a postmortem bundle (see
// postmortem.go) that tells the story of the failure without anyone having
// had to watch it happen.

import (
	"sync"
	"time"

	"repro/internal/ring"
)

// EntryKind classifies one flight-recorder entry by its signal source.
type EntryKind string

// Entry kinds.
const (
	KindLog      EntryKind = "log"         // a structured log record
	KindEvent    EntryKind = "event"       // an IBP operation event
	KindHedge    EntryKind = "hedge"       // a transfer-engine hedge event
	KindSpan     EntryKind = "server-span" // a depot's own span of one traced exchange
	KindBreaker  EntryKind = "breaker"     // a health-scoreboard state transition
	KindForecast EntryKind = "forecast"    // an NWS forecast-vs-measured sample
	KindAlert    EntryKind = "alert"       // an SLO burn-rate alert transition
)

// Entry is one retained observation. Fields are populated per kind; the
// JSON encoding is the line format inside postmortem bundles and the
// array /trace/<id> serves. QueueNS and BackendNS are the depot's numbers
// for one exchange: on its KindSpan entry, and on the client's KindEvent
// entry when the depot returned them on the status line.
type Entry struct {
	Seq       uint64    `json:"seq"`
	Time      time.Time `json:"time"`
	Kind      EntryKind `json:"kind"`
	Trace     string    `json:"trace,omitempty"`
	Span      string    `json:"span,omitempty"`
	Parent    string    `json:"parent,omitempty"`
	Depot     string    `json:"depot,omitempty"`
	Verb      string    `json:"verb,omitempty"`
	Level     string    `json:"level,omitempty"`
	Msg       string    `json:"msg,omitempty"`
	Outcome   string    `json:"outcome,omitempty"`
	Err       string    `json:"err,omitempty"`
	Bytes     int64     `json:"bytes,omitempty"`
	LatencyNS int64     `json:"latency_ns,omitempty"`
	QueueNS   int64     `json:"queue_ns,omitempty"`
	BackendNS int64     `json:"backend_ns,omitempty"`
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
	return Counter("obs_ring_dropped_total", "Entries overwritten before aging out, per bounded ring.",
		n, Label{"ring", ring})
}

// Record implements Observer: every IBP op event (and HEDGE event — the
// transfer engine shares the stream) is retained as one entry, carrying
// the queue and backend time a traced depot returned. The depot's span
// itself lives in the depot's recorder, not here.
func (fr *FlightRecorder) Record(ev Event) {
	e := Entry{
		Time: ev.Time, Kind: KindEvent, Trace: ev.Trace, Span: ev.Span, Parent: ev.Parent,
		Depot: ev.Depot, Verb: ev.Verb, Outcome: ev.Outcome, Err: ev.Err, Bytes: ev.Bytes,
		LatencyNS: ev.Latency.Nanoseconds(), Msg: ev.Note,
	}
	if ev.Verb == "HEDGE" {
		e.Kind = KindHedge
	}
	if ss := ev.Server; ss != nil {
		e.QueueNS, e.BackendNS = ss.Queue.Nanoseconds(), ss.Backend.Nanoseconds()
	}
	fr.Add(e)
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
