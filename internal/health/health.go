// Package health is the per-depot scoreboard shared by the IBP client and
// the Logistical Tools. Every depot operation reports its outcome here
// (success, timeout, refusal, other connectivity error, or a remote
// protocol error), and two signals come back out:
//
//   - a circuit breaker per depot: closed → open after N consecutive
//     connectivity failures → half-open probe after an exponential backoff
//     with jitter. While a circuit is open, clients fail fast instead of
//     re-paying full dial+op timeouts against a dead depot — the
//     degradation the paper's three-day evaluation measures on every
//     extent of every download.
//   - a freshness-weighted success-rate score in [0,1], exponentially
//     decayed so that old history stops counting against (or for) a depot.
//
// Remote protocol errors (NOT_FOUND, EXPIRED, …) prove the depot is alive
// and answering, so they never trip the breaker; only connectivity
// failures do.
package health

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Outcome classifies one depot operation for the scoreboard.
type Outcome int

// Outcomes.
const (
	// Success: the exchange completed.
	Success Outcome = iota
	// Timeout: dial or I/O deadline expired (the expensive failure mode).
	Timeout
	// Refused: the depot host actively refused the connection.
	Refused
	// NetError: any other connectivity failure (reset, EOF, closed).
	NetError
	// ProtocolError: the depot answered with a remote error. The depot is
	// reachable; this never trips the breaker.
	ProtocolError
)

func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case Timeout:
		return "timeout"
	case Refused:
		return "refused"
	case NetError:
		return "net-error"
	case ProtocolError:
		return "protocol-error"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// connectivityFailure reports whether the outcome means the depot could not
// be reached (as opposed to reached-and-unhappy).
func (o Outcome) connectivityFailure() bool {
	return o == Timeout || o == Refused || o == NetError
}

// State is a depot's breaker state.
type State int

// Breaker states.
const (
	// StateClosed: requests flow normally.
	StateClosed State = iota
	// StateOpen: requests fail fast until the backoff expires.
	StateOpen
	// StateHalfOpen: one probe is in flight; its outcome decides.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrCircuitOpen is wrapped by the error returned from Allow while a
// depot's circuit is open. Match with errors.Is.
var ErrCircuitOpen = errors.New("health: circuit open")

// OpenError carries the depot and earliest retry time of a fast-failed
// request. It unwraps to ErrCircuitOpen.
type OpenError struct {
	Addr    string
	RetryAt time.Time
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("health: circuit open for depot %s (probe at %s)", e.Addr, e.RetryAt.Format(time.RFC3339))
}

func (e *OpenError) Unwrap() error { return ErrCircuitOpen }

// Config tunes a Scoreboard. The zero value gets sensible defaults.
type Config struct {
	// FailureThreshold is the number of consecutive connectivity failures
	// that opens a depot's circuit (default 3).
	FailureThreshold int
	// BaseBackoff is the first open interval; each consecutive trip
	// doubles it (default 10s).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5m).
	MaxBackoff time.Duration
	// JitterFrac randomizes each backoff by ±JitterFrac so a fleet of
	// clients does not probe a recovering depot in lockstep (default 0.2).
	JitterFrac float64
	// ScoreHalfLife is the exponential-decay half-life of the
	// success-rate score (default 10m of the configured clock).
	ScoreHalfLife time.Duration
	// Clock supplies time (default real time; experiments pass the
	// virtual clock so backoffs elapse in simulated time).
	Clock vclock.Clock
	// Seed makes the backoff jitter deterministic for tests.
	Seed int64
	// OnTransition, when set, is called on every breaker state change
	// (closed→open, open→half-open, half-open→open, →closed). It runs with
	// the scoreboard mutex held: it must return quickly and must not call
	// back into the scoreboard. The flight recorder's BreakerTransition
	// satisfies both constraints.
	OnTransition func(addr string, from, to State, at time.Time)
}

func (c Config) withDefaults() Config {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Minute
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	if c.JitterFrac < 0 {
		// Explicitly disabled (tests want deterministic backoffs).
		c.JitterFrac = 0
	}
	if c.ScoreHalfLife <= 0 {
		c.ScoreHalfLife = 10 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	return c
}

// maxLatencySamples bounds the per-depot latency ring.
const maxLatencySamples = 256

// depotHealth is one depot's row of the scoreboard.
type depotHealth struct {
	state       State
	consecFails int
	trips       int // consecutive opens; drives the exponential backoff
	retryAt     time.Time
	lastChange  time.Time

	// Freshness-weighted success rate: exponentially decayed success and
	// failure weights.
	succW, failW float64
	lastDecay    time.Time

	// Counters per outcome plus breaker transitions, exported in
	// snapshots.
	outcomes    [5]int64
	opened      int64
	halfOpened  int64
	reclosed    int64
	lastOutcome Outcome
	lastSeen    time.Time

	// Recent success latencies in seconds.
	lat *ring.Ring[float64]
}

// Scoreboard tracks depot health. Safe for concurrent use; one instance is
// shared by the IBP client and the tools built on it.
type Scoreboard struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	depots map[string]*depotHealth
}

// New builds a scoreboard.
func New(cfg Config) *Scoreboard {
	cfg = cfg.withDefaults()
	return &Scoreboard{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		depots: make(map[string]*depotHealth),
	}
}

func (s *Scoreboard) depot(addr string) *depotHealth {
	d, ok := s.depots[addr]
	if !ok {
		d = &depotHealth{lastDecay: s.cfg.Clock.Now(), lat: ring.New[float64](maxLatencySamples)}
		s.depots[addr] = d
	}
	return d
}

// decay brings the score weights forward to now.
func (d *depotHealth) decay(now time.Time, halfLife time.Duration) {
	dt := now.Sub(d.lastDecay)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / float64(halfLife))
	d.succW *= f
	d.failW *= f
	d.lastDecay = now
}

// Allow reports whether a request to addr may proceed. It returns nil when
// the circuit is closed, claims the single half-open probe slot when the
// backoff has expired, and otherwise returns an *OpenError (errors.Is
// ErrCircuitOpen) without touching the network.
func (s *Scoreboard) Allow(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.depot(addr)
	switch d.state {
	case StateClosed:
		return nil
	case StateHalfOpen:
		// A probe is already in flight; everyone else fails fast.
		return &OpenError{Addr: addr, RetryAt: d.retryAt}
	default: // StateOpen
		now := s.cfg.Clock.Now()
		if now.Before(d.retryAt) {
			return &OpenError{Addr: addr, RetryAt: d.retryAt}
		}
		d.state = StateHalfOpen
		d.halfOpened++
		d.lastChange = now
		s.transition(addr, StateOpen, StateHalfOpen, now)
		return nil
	}
}

// Report records the outcome of one operation against addr. latency is
// only recorded for successes (failure latencies measure the timeout
// configuration, not the depot).
func (s *Scoreboard) Report(addr string, outcome Outcome, latency time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	d := s.depot(addr)
	d.decay(now, s.cfg.ScoreHalfLife)
	d.outcomes[outcome]++
	d.lastOutcome = outcome
	d.lastSeen = now

	if outcome.connectivityFailure() {
		d.failW++
		d.consecFails++
		switch {
		case d.state == StateHalfOpen:
			// The probe failed: re-open with a longer backoff.
			s.trip(addr, d, now)
		case d.state == StateClosed && d.consecFails >= s.cfg.FailureThreshold:
			s.trip(addr, d, now)
		}
		return
	}

	// Success or protocol error: the depot is reachable.
	d.succW++
	d.consecFails = 0
	if outcome == Success {
		d.addLatency(latency)
	}
	if d.state != StateClosed {
		from := d.state
		d.state = StateClosed
		d.trips = 0
		d.reclosed++
		d.lastChange = now
		s.transition(addr, from, StateClosed, now)
	}
}

// addLatency appends one latency sample to the depot's ring.
func (d *depotHealth) addLatency(latency time.Duration) {
	if latency <= 0 {
		return
	}
	d.lat.Push(latency.Seconds())
}

// ReportLatency records a latency-only sample for addr: a lower bound the
// caller measured on an operation that never finished, such as a hedged
// primary cancelled because its backup won. It feeds the latency
// percentiles only — no outcome count, no score weight, no breaker
// transition — so a cancelled operation still never counts for or against
// the depot, yet a client that only ever reads from a slow depot learns how
// slow it is.
func (s *Scoreboard) ReportLatency(addr string, latency time.Duration) {
	if latency <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.depot(addr).addLatency(latency)
}

// transition invokes the OnTransition hook (mutex held — see Config).
func (s *Scoreboard) transition(addr string, from, to State, at time.Time) {
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(addr, from, to, at)
	}
}

// trip opens the circuit and schedules the next probe with exponential
// backoff and jitter.
func (s *Scoreboard) trip(addr string, d *depotHealth, now time.Time) {
	d.trips++
	backoff := s.cfg.BaseBackoff << (d.trips - 1)
	if backoff <= 0 || backoff > s.cfg.MaxBackoff {
		backoff = s.cfg.MaxBackoff
	}
	jitter := 1 + s.cfg.JitterFrac*(2*s.rng.Float64()-1)
	backoff = time.Duration(float64(backoff) * jitter)
	from := d.state
	d.state = StateOpen
	d.opened++
	d.retryAt = now.Add(backoff)
	d.lastChange = now
	s.transition(addr, from, StateOpen, now)
}

// State returns addr's breaker state and, when open, the earliest probe
// time.
func (s *Scoreboard) State(addr string) (State, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.depots[addr]
	if !ok {
		return StateClosed, time.Time{}
	}
	return d.state, d.retryAt
}

// Blocked reports whether requests to addr would currently fail fast: the
// circuit is open and the backoff has not yet expired, or a half-open
// probe is already in flight. Rankers use this to demote a depot below
// every healthy candidate without consuming the probe slot.
func (s *Scoreboard) Blocked(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.depots[addr]
	if !ok {
		return false
	}
	switch d.state {
	case StateHalfOpen:
		return true
	case StateOpen:
		return s.cfg.Clock.Now().Before(d.retryAt)
	}
	return false
}

// Latency returns the median and p95 of addr's recent latency samples and
// how many there are (0 for a depot with none). The transfer engine asks on
// every hedged race and every ranked candidate, so it allocates nothing:
// the ring is sorted in a copy on the stack.
func (s *Scoreboard) Latency(addr string) (median, p95 time.Duration, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.depots[addr]
	if !ok || d.lat.Len() == 0 {
		return 0, 0, 0
	}
	var buf [maxLatencySamples]float64
	sorted := buf[:copy(buf[:], d.lat.Values())]
	sort.Float64s(sorted)
	sec := func(p float64) time.Duration {
		return time.Duration(stats.Percentile(sorted, p) * float64(time.Second))
	}
	return sec(50), sec(95), len(sorted)
}

// Score returns addr's freshness-weighted success rate in [0,1]. Depots
// with no (or fully decayed) history score 1: unknown depots deserve a
// chance.
func (s *Scoreboard) Score(addr string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.depots[addr]
	if !ok {
		return 1
	}
	d.decay(s.cfg.Clock.Now(), s.cfg.ScoreHalfLife)
	total := d.succW + d.failW
	if total < 1e-9 {
		return 1
	}
	return d.succW / total
}

// DepotHealth is one depot's snapshot row.
type DepotHealth struct {
	Addr    string
	State   State
	Score   float64
	RetryAt time.Time // earliest probe when open
	Trips   int       // consecutive opens driving the current backoff

	// Outcome counters.
	Successes, Timeouts, Refusals, NetErrors, ProtocolErrors int64
	// Breaker transition counters.
	Opened, HalfOpened, Reclosed int64

	Counter     stats.Counter // reachable vs connectivity-failed ops
	Latency     stats.Summary // success latencies, seconds
	LastOutcome Outcome
	LastSeen    time.Time
}

// Snapshot returns every depot's health, sorted by address.
func (s *Scoreboard) Snapshot() []DepotHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock.Now()
	out := make([]DepotHealth, 0, len(s.depots))
	for addr, d := range s.depots {
		d.decay(now, s.cfg.ScoreHalfLife)
		score := 1.0
		if total := d.succW + d.failW; total >= 1e-9 {
			score = d.succW / total
		}
		fails := d.outcomes[Timeout] + d.outcomes[Refused] + d.outcomes[NetError]
		out = append(out, DepotHealth{
			Addr:           addr,
			State:          d.state,
			Score:          score,
			RetryAt:        d.retryAt,
			Trips:          d.trips,
			Successes:      d.outcomes[Success],
			Timeouts:       d.outcomes[Timeout],
			Refusals:       d.outcomes[Refused],
			NetErrors:      d.outcomes[NetError],
			ProtocolErrors: d.outcomes[ProtocolError],
			Opened:         d.opened,
			HalfOpened:     d.halfOpened,
			Reclosed:       d.reclosed,
			Counter:        stats.Counter{OK: int(d.outcomes[Success] + d.outcomes[ProtocolError]), Fail: int(fails)},
			Latency:        stats.Summarize(d.lat.Values()),
			LastOutcome:    d.lastOutcome,
			LastSeen:       d.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Render formats the scoreboard for terminals (the `xnd health` output).
func (s *Scoreboard) Render() string {
	rows := s.Snapshot()
	now := s.cfg.Clock.Now()
	var b strings.Builder
	fmt.Fprintf(&b, "depot health scoreboard (%d depots)\n", len(rows))
	if len(rows) == 0 {
		b.WriteString("  (no observations)\n")
		return b.String()
	}
	addrW := len("depot")
	for _, r := range rows {
		if len(r.Addr) > addrW {
			addrW = len(r.Addr)
		}
	}
	fmt.Fprintf(&b, "  %-*s %-9s %6s %5s %5s %5s %5s %5s  %s\n",
		addrW, "depot", "state", "score", "ok", "tmo", "ref", "net", "proto", "latency / backoff")
	for _, r := range rows {
		detail := ""
		switch r.State {
		case StateOpen:
			detail = fmt.Sprintf("backing off %s (trip %d, %d opens)",
				r.RetryAt.Sub(now).Round(time.Millisecond), r.Trips, r.Opened)
		case StateHalfOpen:
			detail = "probe in flight"
		default:
			if r.Latency.N > 0 {
				detail = fmt.Sprintf("p50 %.0fms p95 %.0fms (n=%d)",
					r.Latency.Median*1e3, r.Latency.P95*1e3, r.Latency.N)
			}
		}
		fmt.Fprintf(&b, "  %-*s %-9s %5.1f%% %5d %5d %5d %5d %5d  %s\n",
			addrW, r.Addr, r.State, 100*r.Score,
			r.Successes, r.Timeouts, r.Refusals, r.NetErrors, r.ProtocolErrors, detail)
	}
	return b.String()
}

// Classify maps an operation error to an Outcome. A nil error is Success;
// remote protocol errors prove reachability; net.Error timeouts (and
// os.ErrDeadlineExceeded) are Timeout; ECONNREFUSED (and the simulated
// WAN's refusal) is Refused; everything else connection-shaped is
// NetError.
func Classify(err error) Outcome {
	if err == nil {
		return Success
	}
	if wire.IsRemoteAny(err) {
		return ProtocolError
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return Timeout
	}
	if errors.Is(err, syscall.ECONNREFUSED) || strings.Contains(err.Error(), "connection refused") {
		return Refused
	}
	var oe *net.OpError
	if errors.As(err, &oe) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return NetError
	}
	// Unrecognized errors (bad caps, validation) say nothing about the
	// depot's reachability; treat like a protocol-level problem.
	return ProtocolError
}
