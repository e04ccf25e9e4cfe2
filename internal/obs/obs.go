// Package obs is the client-side observability layer of the stack: a
// structured event per IBP operation, a ring buffer of recent events, and
// per-depot/per-verb aggregates. The paper's evaluation hinges on knowing
// which depot served which extent, how fast, and what failed (§3); this
// package is where that visibility accumulates at runtime instead of being
// reconstructed from logs.
//
// The ibp.Client emits one Event per operation through an Observer (see
// ibp.WithObserver); Collector is the standard sink. Everything here is
// allocation-light and lock-cheap enough to stay enabled in production:
// recording an event is one mutex acquisition and no allocation beyond the
// amortized ring slot.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/stats"
)

// Event is one IBP operation as seen from the client.
type Event struct {
	Seq     uint64        // collector-assigned sequence number (1-based)
	Time    time.Time     // operation start, on the client's clock
	Verb    string        // IBP verb (ALLOCATE, STORE, LOAD, ...)
	Depot   string        // depot address host:port
	Bytes   int64         // payload bytes moved (0 when none or on failure)
	Latency time.Duration // wall time of the exchange on the client's clock
	Outcome string        // "success", "timeout", "refused", "net-error", "protocol-error", "circuit-open", "cancelled"
	Err     string        // error text ("" on success)
	Reused  bool          // served on a pooled connection
	Retried bool          // retried on a fresh dial after a stale pooled conn
	Batched bool          // sub-operation of a pipelined BATCH exchange

	// Trace correlation (empty when the operation was not traced).
	Trace  string    // trace ID shared across layers
	Span   string    // this event's span ID
	Parent string    // parent span ID ("" for the root)
	Note   string    // free-form detail (extent range, hedge role, ...)
	Server *WireSpan // depot-reported server-side span, when returned
}

// OK reports whether the operation succeeded.
func (e Event) OK() bool { return e.Err == "" }

// Observer receives one event per IBP operation. Implementations must be
// safe for concurrent use; Record is called on the operation's goroutine.
type Observer interface {
	Record(Event)
}

// maxLatSamples bounds the per-(depot,verb) latency sample ring, so a
// long-lived client aggregates over a sliding window instead of growing
// without bound.
const maxLatSamples = 512

// aggKey identifies one aggregation cell.
type aggKey struct {
	Depot string
	Verb  string
}

// aggregate accumulates one (depot, verb) cell.
type aggregate struct {
	count   int64
	errors  int64
	bytes   int64
	reused  int64
	retried int64
	lat     *ring.Ring[float64] // seconds
	// ex holds the most recent traced sample per latency bucket of
	// DefLatencyBounds (slot len(DefLatencyBounds) is +Inf), so the
	// exposition can point a histogram spike at an assembled trace.
	ex []Exemplar
}

func (a *aggregate) observe(e Event) {
	a.count++
	if !e.OK() {
		a.errors++
	}
	a.bytes += e.Bytes
	if e.Reused {
		a.reused++
	}
	if e.Retried {
		a.retried++
	}
	s := e.Latency.Seconds()
	a.lat.Push(s)
	if e.Trace != "" {
		if a.ex == nil {
			a.ex = make([]Exemplar, len(DefLatencyBounds)+1)
		}
		a.ex[BucketIndex(DefLatencyBounds, s)] = Exemplar{Trace: e.Trace, Value: s, Time: e.Time}
	}
}

// Collector is the standard Observer: a fixed-size ring of recent events
// plus per-depot/per-verb aggregates. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events *ring.Ring[Event]
	seq    uint64
	agg    map[aggKey]*aggregate
}

// DefaultRingSize is the recent-event capacity used when NewCollector is
// given a non-positive size.
const DefaultRingSize = 256

// NewCollector builds a collector keeping the last ringSize events.
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{
		events: ring.New[Event](ringSize),
		agg:    make(map[aggKey]*aggregate),
	}
}

// Record implements Observer.
func (c *Collector) Record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	e.Seq = c.seq
	c.events.Push(e)
	k := aggKey{Depot: e.Depot, Verb: e.Verb}
	a := c.agg[k]
	if a == nil {
		a = &aggregate{lat: ring.New[float64](maxLatSamples)}
		c.agg[k] = a
	}
	a.observe(e)
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (c *Collector) Recent(n int) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.Last(nil, n)
}

// Total reports how many events have ever been recorded.
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Dropped reports how many events the ring has overwritten before they
// aged out naturally — the collector's data-loss counter under load.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.Dropped()
}

// AggRow is one (depot, verb) aggregate snapshot.
type AggRow struct {
	Depot   string
	Verb    string
	Count   int64
	Errors  int64
	Bytes   int64
	Reused  int64 // operations served on a pooled connection
	Retried int64 // operations that retried on a fresh dial
	Latency stats.Summary
}

// Snapshot returns the aggregates, sorted by depot then verb.
func (c *Collector) Snapshot() []AggRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AggRow, 0, len(c.agg))
	for k, a := range c.agg {
		out = append(out, AggRow{
			Depot:   k.Depot,
			Verb:    k.Verb,
			Count:   a.count,
			Errors:  a.errors,
			Bytes:   a.bytes,
			Reused:  a.reused,
			Retried: a.retried,
			Latency: stats.Summarize(a.lat.Values()),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depot != out[j].Depot {
			return out[i].Depot < out[j].Depot
		}
		return out[i].Verb < out[j].Verb
	})
	return out
}

// Render prints the aggregate table: one row per (depot, verb) with
// counts, error and reuse rates, bytes, and latency percentiles.
func (c *Collector) Render() string {
	rows := c.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-9s %6s %5s %12s %6s %5s %9s %9s %9s\n",
		"DEPOT", "VERB", "N", "ERR", "BYTES", "REUSE", "RETRY", "p50", "p95", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-9s %6d %5d %12d %6d %5d %9s %9s %9s\n",
			r.Depot, r.Verb, r.Count, r.Errors, r.Bytes, r.Reused, r.Retried,
			fmtSec(r.Latency.Median), fmtSec(r.Latency.P95), fmtSec(r.Latency.Max))
	}
	return b.String()
}

// RenderEvents prints up to n recent events, oldest first, one per line —
// the raw trace behind Render's aggregates.
func (c *Collector) RenderEvents(n int) string {
	evs := c.Recent(n)
	var b strings.Builder
	for _, e := range evs {
		flags := ""
		if e.Reused {
			flags += "+pooled"
		}
		if e.Retried {
			flags += "+retried"
		}
		fmt.Fprintf(&b, "#%-5d %s %-9s %-22s %8dB %9s %s%s",
			e.Seq, e.Time.UTC().Format("15:04:05.000"), e.Verb, e.Depot,
			e.Bytes, fmtSec(e.Latency.Seconds()), e.Outcome, flags)
		if e.Err != "" {
			fmt.Fprintf(&b, "  %s", e.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
