// Package transfer is the adaptive transfer engine of the logistical tools
// layer. The paper's future-work section names "threaded retrievals" as the
// path to download performance; this package supplies the three mechanisms
// that make threading effective against a faulty wide area:
//
//   - hedged requests: when an in-flight attempt exceeds a latency
//     threshold derived from the health scoreboard's per-depot percentiles
//     (fallback: a multiple of the engine's own observed median), a backup
//     attempt is launched against the next-ranked replica and the first
//     success wins; the loser is cancelled. Tail latency — not the median —
//     dominates wide-area retrieval UX, and hedging converts a slow (not
//     dead) depot from a p99 disaster into one wasted connection. A depot
//     that is slow on most requests, not just some, is reported by Slow so
//     the download ranker stops putting it first.
//   - per-depot concurrency limits: a weighted semaphore keyed by depot
//     address, so Parallelism=16 against 4 depots does not open 16 sockets
//     to the closest one. Slot counts are bandwidth-weighted when NWS
//     forecasts exist.
//   - coded-group singleflight: concurrent extents protected by the same
//     coding group share one group fetch+decode instead of each
//     re-downloading k blocks.
//
// The engine is shared by the parallel download path and the streaming
// reader's readahead; every counter it keeps is exported in Prometheus text
// form via Metrics.
package transfer

import (
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/vclock"
)

// Config tunes an Engine. The zero value gets sensible defaults.
type Config struct {
	// Hedge enables hedged (backup) requests. Limits and singleflight work
	// either way.
	Hedge bool
	// HedgeAfter, when positive, is a fixed hedging threshold that
	// overrides the adaptive one.
	HedgeAfter time.Duration
	// HedgeMultiple scales the engine's observed median latency into the
	// fallback threshold when the scoreboard has no percentiles for the
	// depot (default 3).
	HedgeMultiple float64
	// MinHedgeDelay floors the adaptive threshold so a streak of fast
	// local fetches cannot make the engine hedge every request (default
	// 10ms).
	MinHedgeDelay time.Duration
	// MaxHedgeDelay caps the adaptive threshold, and is the threshold used
	// before any latency has been observed at all (default 2s).
	MaxHedgeDelay time.Duration
	// MaxPerDepot is the base number of concurrent operations allowed per
	// depot address (default 4). Forecast can raise or lower a depot's
	// share around this base.
	MaxPerDepot int
	// Health, when set, supplies per-depot latency percentiles for the
	// hedging threshold and Slow, and receives a latency-only sample for
	// each primary cancelled because its backup won.
	Health *health.Scoreboard
	// Forecast, when set, returns a bandwidth estimate (Mbit/s) for a
	// depot address; slot counts are weighted by it (an NWS forecast is
	// the intended source).
	Forecast func(addr string) (float64, bool)
	// Clock supplies time (default real; tests and the simulated WAN pass
	// the virtual clock).
	Clock vclock.Clock
	// Observer, when set, receives one obs.Event per hedging decision
	// (backup launched, winner, loser cancelled), so --trace timelines show
	// the race itself and not just its surviving IBP operations. Share the
	// same collector the ibp.Client reports to.
	Observer obs.Observer
	// Logger, when set, receives a debug record per hedging decision with
	// the shared trace/depot attrs, so structured logs tell the same story
	// the event stream does (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HedgeMultiple <= 0 {
		c.HedgeMultiple = 3
	}
	if c.MinHedgeDelay <= 0 {
		c.MinHedgeDelay = 10 * time.Millisecond
	}
	if c.MaxHedgeDelay <= 0 {
		c.MaxHedgeDelay = 2 * time.Second
	}
	if c.MaxPerDepot <= 0 {
		c.MaxPerDepot = 4
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// maxObserved bounds the engine's own latency sample ring (the fallback
// median source).
const maxObserved = 256

// Counters is a snapshot of the engine's activity.
type Counters struct {
	// Hedging.
	HedgesLaunched  int64 // backup attempts started
	HedgeWins       int64 // backups that finished first with success
	HedgesCancelled int64 // losing attempts cancelled mid-flight
	// Per-depot limiting.
	LimitAcquires int64 // slot acquisitions
	LimitWaits    int64 // acquisitions that had to wait for a slot
	// Coded-group singleflight.
	SingleflightLeaders int64 // decodes actually executed
	SingleflightShared  int64 // callers served by another caller's decode
}

// Engine is the adaptive transfer engine. Safe for concurrent use; share
// one per Tools client.
type Engine struct {
	cfg Config
	lim *limiter
	sf  *singleflight

	mu  sync.Mutex
	lat *ring.Ring[float64] // observed success latencies, seconds
	c   Counters
}

// New builds an engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, sf: newSingleflight(), lat: ring.New[float64](maxObserved)}
	e.lim = newLimiter(cfg.MaxPerDepot, cfg.Forecast)
	return e
}

// Hedging reports whether backup requests are enabled.
func (e *Engine) Hedging() bool { return e.cfg.Hedge }

// Acquire claims a concurrency slot for addr, blocking while the depot is
// at its limit, and returns the release function. Always call release.
func (e *Engine) Acquire(addr string) (release func()) {
	waited := e.lim.acquire(addr)
	e.mu.Lock()
	e.c.LimitAcquires++
	if waited {
		e.c.LimitWaits++
	}
	e.mu.Unlock()
	return func() { e.lim.release(addr) }
}

// Slots reports the current slot count for addr (for tests and the
// scoreboard rendering).
func (e *Engine) Slots(addr string) int { return e.lim.slots(addr) }

// observe feeds one successful attempt latency into the fallback ring.
func (e *Engine) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	e.mu.Lock()
	e.lat.Push(d.Seconds())
	e.mu.Unlock()
}

// observedMedian returns the median of the engine's own success latencies
// in seconds, or 0 when none have been observed. Like the scoreboard's
// percentiles it sorts a copy on the stack: Slow asks once per candidate.
func (e *Engine) observedMedian() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lat.Len() == 0 {
		return 0
	}
	var buf [maxObserved]float64
	s := buf[:copy(buf[:], e.lat.Values())]
	sort.Float64s(s)
	return s[len(s)/2]
}

// minDepotSamples is how many latency samples the scoreboard must hold for
// a depot before its own percentiles steer hedging and ranking.
const minDepotSamples = 3

// HedgeDelay returns how long an attempt against addr may run before a
// backup is launched: a fixed HedgeAfter when configured, else the depot's
// p95 latency from the health scoreboard, else the base threshold (see
// baseDelay). The adaptive forms are clamped to [MinHedgeDelay,
// MaxHedgeDelay].
func (e *Engine) HedgeDelay(addr string) time.Duration {
	if e.cfg.HedgeAfter <= 0 && e.cfg.Health != nil {
		if _, p95, n := e.cfg.Health.Latency(addr); n >= minDepotSamples {
			return e.clampDelay(p95)
		}
	}
	return e.baseDelay()
}

// baseDelay is the delay after which the engine hedges a request whatever
// the depot: a fixed HedgeAfter when configured, else HedgeMultiple times
// the engine's own observed median (clamped), else MaxHedgeDelay.
func (e *Engine) baseDelay() time.Duration {
	if e.cfg.HedgeAfter > 0 {
		return e.cfg.HedgeAfter
	}
	if med := e.observedMedian(); med > 0 {
		return e.clampDelay(time.Duration(e.cfg.HedgeMultiple * med * float64(time.Second)))
	}
	return e.cfg.MaxHedgeDelay
}

// Slow reports whether addr is measured-slow: the scoreboard holds at least
// minDepotSamples latencies for it and their median exceeds the base hedge
// threshold, so a typical request to it would be hedged. Download ranking
// stops leading with such a depot. Hedging cannot fix one that is always
// slow: the adaptive HedgeDelay is the depot's own p95, which its requests
// never outlive. Without a scoreboard nothing is slow.
func (e *Engine) Slow(addr string) bool {
	if e.cfg.Health == nil {
		return false
	}
	med, _, n := e.cfg.Health.Latency(addr)
	return n >= minDepotSamples && med > e.baseDelay()
}

func (e *Engine) clampDelay(d time.Duration) time.Duration {
	if d < e.cfg.MinHedgeDelay {
		return e.cfg.MinHedgeDelay
	}
	if d > e.cfg.MaxHedgeDelay {
		return e.cfg.MaxHedgeDelay
	}
	return d
}

// Outcome is one attempt's result within a hedged race, in launch order
// (index 0 is the primary, 1 the backup). A nil entry means the attempt was
// never launched.
type Outcome struct {
	Err        error
	Start, End time.Time
	Hedged     bool // this was the backup attempt
}

// Hedge runs run(0) against addrs[0] and — when hedging is enabled, a
// backup address exists, and the primary outlives HedgeDelay — run(1)
// against addrs[1], taking the first success and cancelling the loser via
// its cancel channel. It returns the winning index (-1 when every launched
// attempt failed) and the outcomes of the launched attempts. Each attempt
// holds a concurrency slot for its depot while running.
func (e *Engine) Hedge(addrs [2]string, run func(idx int, cancel <-chan struct{}) error) (winner int, out [2]*Outcome) {
	return e.HedgeCtx(obs.SpanContext{}, addrs, run)
}

// emit records one hedging event. Events carry trace correlation when the
// race runs under a sampled span; with no observer configured this is a
// no-op.
func (e *Engine) emit(sc obs.SpanContext, addr, outcome, note string, lat time.Duration) {
	l := e.cfg.Logger
	if sc.Sampled && sc.Valid() {
		l = l.With(obs.KeyTrace, sc.TraceID)
	}
	l.Debug("hedge "+outcome, obs.KeyDepot, addr, obs.KeyVerb, "HEDGE", "note", note)
	if e.cfg.Observer == nil {
		return
	}
	ev := obs.Event{
		Time: e.cfg.Clock.Now(), Verb: "HEDGE", Depot: addr,
		Outcome: outcome, Note: note, Latency: lat,
	}
	if sc.Sampled && sc.Valid() {
		ev.Trace = sc.TraceID
		ev.Span = obs.NewSpanID()
		ev.Parent = sc.SpanID
	}
	e.cfg.Observer.Record(ev)
}

// HedgeCtx is Hedge running under a span: hedge launch/win/cancel events
// are recorded against sc so a trace timeline shows the race alongside the
// IBP operations it spawned.
func (e *Engine) HedgeCtx(sc obs.SpanContext, addrs [2]string, run func(idx int, cancel <-chan struct{}) error) (winner int, out [2]*Outcome) {
	type done struct {
		idx        int
		err        error
		start, end time.Time
	}
	results := make(chan done, 2)
	cancels := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	launch := func(idx int) {
		go func() {
			release := e.Acquire(addrs[idx])
			defer release()
			t0 := e.cfg.Clock.Now()
			err := run(idx, cancels[idx])
			results <- done{idx: idx, err: err, start: t0, end: e.cfg.Clock.Now()}
		}()
	}

	launch(0)
	launched := 1
	var timer <-chan time.Time
	if e.cfg.Hedge && addrs[1] != "" {
		timer = e.cfg.Clock.After(e.HedgeDelay(addrs[0]))
	}
	winner = -1
	for finished := 0; finished < launched; {
		select {
		case <-timer:
			timer = nil
			launch(1)
			launched = 2
			e.mu.Lock()
			e.c.HedgesLaunched++
			e.mu.Unlock()
			e.emit(sc, addrs[1], "launched", "backup for "+addrs[0], 0)
		case d := <-results:
			finished++
			out[d.idx] = &Outcome{Err: d.err, Start: d.start, End: d.end, Hedged: d.idx == 1}
			if d.err == nil {
				e.observe(d.end.Sub(d.start))
			}
			if d.idx == 0 && d.err != nil && winner == 1 && e.cfg.Health != nil {
				// The primary was cancelled because its backup won, so the
				// IBP client reported nothing for it. It ran at least until
				// the backup finished: record that as a latency-only lower
				// bound, or a client that only reads a slow depot never
				// learns it is slow.
				e.cfg.Health.ReportLatency(addrs[0], out[1].End.Sub(d.start))
			}
			if d.err == nil && winner < 0 {
				winner = d.idx
				timer = nil // a win makes the pending hedge pointless
				role := "primary"
				if d.idx == 1 {
					role = "backup"
				}
				if launched == 2 {
					e.emit(sc, addrs[d.idx], "win", role, d.end.Sub(d.start))
				}
				if launched == 2 && out[1-d.idx] == nil {
					// The loser is still in flight: cancel it. The loop
					// keeps waiting so its connection is torn down and its
					// outcome recorded before we return.
					close(cancels[1-d.idx])
					e.mu.Lock()
					e.c.HedgesCancelled++
					if d.idx == 1 {
						e.c.HedgeWins++
					}
					e.mu.Unlock()
					e.emit(sc, addrs[1-d.idx], "cancelled", "lost to "+addrs[d.idx], 0)
				} else if d.idx == 1 {
					e.mu.Lock()
					e.c.HedgeWins++
					e.mu.Unlock()
				}
			}
		}
	}
	return winner, out
}

// GroupDo collapses concurrent decodes of the same coding group: the first
// caller for key runs fn, everyone else arriving before it finishes blocks
// and shares the result. shared reports whether this caller reused another
// caller's work. The returned slice is shared across callers and must be
// treated as read-only. fn returns a bufpool buffer (bufpool rule 4), and
// the shared result is counted: each caller calls release exactly once when
// it has copied what it needs, and the last release puts the buffer back.
func (e *Engine) GroupDo(key string, fn func() ([]byte, error)) (data []byte, release func(), shared bool, err error) {
	data, release, shared, err = e.sf.do(key, fn)
	e.mu.Lock()
	if shared {
		e.c.SingleflightShared++
	} else {
		e.c.SingleflightLeaders++
	}
	e.mu.Unlock()
	return data, release, shared, err
}

// Counters returns a snapshot of the engine's activity counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c
}

// Metrics renders the engine's counters as Prometheus samples for the
// /metrics endpoint, prefixed (e.g. "xnd_transfer_").
func (e *Engine) Metrics(prefix string) []obs.Metric {
	c := e.Counters()
	counter := func(name, help string, v int64) obs.Metric {
		return obs.Metric{Name: prefix + name, Help: help, Type: "counter", Value: float64(v)}
	}
	return []obs.Metric{
		counter("hedges_total", "Backup (hedged) attempts launched.", c.HedgesLaunched),
		counter("hedge_wins_total", "Hedged attempts that finished first with success.", c.HedgeWins),
		counter("hedge_cancels_total", "Losing attempts cancelled after a sibling won.", c.HedgesCancelled),
		counter("limit_acquires_total", "Per-depot concurrency slots acquired.", c.LimitAcquires),
		counter("limit_waits_total", "Slot acquisitions that blocked on a full depot.", c.LimitWaits),
		counter("singleflight_leader_total", "Coded-group decodes actually executed.", c.SingleflightLeaders),
		counter("singleflight_shared_total", "Coded-group decodes served by another caller's work.", c.SingleflightShared),
	}
}
