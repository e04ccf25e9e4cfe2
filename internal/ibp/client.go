package ibp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/health"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Client is the IBP client library. The zero value is not usable; call
// NewClient. A Client is safe for concurrent use. It parks connections
// between operations (see WithPooling); close it when done to release
// them.
type Client struct {
	dialer      netx.Dialer
	clock       vclock.Clock
	dialTimeout time.Duration
	opTimeout   time.Duration
	maxIdle     int
	pool        *wire.Pool
	health      *health.Scoreboard
	obs         obs.Observer
	span        obs.SpanContext // parent span for this client's operations
}

// Option configures a Client.
type Option func(*Client)

// WithDialer sets the dialer (default: the system network stack).
func WithDialer(d netx.Dialer) Option { return func(c *Client) { c.dialer = d } }

// WithClock sets the clock used for deadlines (default: real time).
func WithClock(ck vclock.Clock) Option { return func(c *Client) { c.clock = ck } }

// WithDialTimeout bounds connection establishment (default 5s).
func WithDialTimeout(d time.Duration) Option { return func(c *Client) { c.dialTimeout = d } }

// WithOpTimeout bounds a single protocol exchange (default 30s). The
// download tool relies on this to fail over between replicas.
func WithOpTimeout(d time.Duration) Option { return func(c *Client) { c.opTimeout = d } }

// WithHealth attaches a depot health scoreboard: every operation outcome
// is reported to it, and its circuit breaker is consulted before dialing —
// requests to an open-circuit depot fail fast with an error matching
// health.ErrCircuitOpen instead of paying dial and op timeouts. Share one
// scoreboard across the clients and tools of a process.
func WithHealth(sb *health.Scoreboard) Option { return func(c *Client) { c.health = sb } }

// Health returns the attached scoreboard, or nil.
func (c *Client) Health() *health.Scoreboard { return c.health }

// WithObserver attaches an operation-event sink: every IBP operation emits
// one obs.Event (verb, depot, bytes, latency, outcome, pool-reuse/retry
// flags) as it completes. Use an obs.Collector to keep recent events and
// per-depot/per-verb aggregates.
func WithObserver(o obs.Observer) Option { return func(c *Client) { c.obs = o } }

// Observer returns the attached event sink, or nil.
func (c *Client) Observer() obs.Observer { return c.obs }

// WithSpan returns a client whose operations run under the given span:
// sampled contexts are stamped onto emitted events, with sc as the parent
// span, and a plain verb carries its span to the depot with the TRACE verb.
// The returned client shares this client's pool, scoreboard and observer —
// deriving one per extent is cheap.
func (c *Client) WithSpan(sc obs.SpanContext) *Client {
	c2 := *c
	c2.span = sc
	return &c2
}

// Span returns the client's current span context (zero when untraced).
func (c *Client) Span() obs.SpanContext { return c.span }

// NewClient builds a client with the given options.
func NewClient(opts ...Option) *Client {
	c := &Client{
		dialer:      netx.System(),
		clock:       vclock.Real(),
		dialTimeout: 5 * time.Second,
		opTimeout:   30 * time.Second,
		maxIdle:     defaultMaxIdle,
	}
	for _, o := range opts {
		o(c)
	}
	if c.maxIdle > 0 {
		c.pool = wire.NewPool(c.maxIdle)
	}
	return c
}

// dialFresh opens a new connection to addr with the operation deadline
// applied.
func (c *Client) dialFresh(addr string) (*wire.Conn, error) {
	raw, err := c.dialer.Dial("tcp", addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("ibp: dial %s: %w", addr, err)
	}
	if err := netx.SetOpDeadline(raw, c.clock.Now(), c.opTimeout); err != nil {
		raw.Close()
		return nil, fmt.Errorf("ibp: set deadline: %w", err)
	}
	return wire.NewConn(raw), nil
}

// applyDeadline refreshes the operation deadline on a pooled connection.
// It must go through netx.SetOpDeadline with the client's own clock: on a
// simulated link the deadline that matters is the virtual one, and a plain
// wall-clock SetDeadline would silently ignore WithClock on every
// pool-reuse path.
func (c *Client) applyDeadline(conn *wire.Conn) error {
	return netx.SetOpDeadline(conn.NetConn(), c.clock.Now(), c.opTimeout)
}

// ErrCancelled reports that an operation was abandoned on purpose — its
// hedged sibling won the race — rather than failing. Cancelled operations
// are not reported to the health scoreboard (a depot must not be penalised
// because a faster replica existed) and are never retried on a fresh dial.
var ErrCancelled = errors.New("ibp: operation cancelled")

// run is the one exchange path: every operation, a plain verb or a batch
// sub-op, goes through it and is reported by it. It consults the depot's
// circuit breaker, runs the exchange on a pooled or fresh connection
// (retried once on a fresh dial when retryable and a reused connection
// turns out stale), and then reports each op once: a health outcome (never
// for a cancelled op, nor for one the breaker refused), an observer event,
// and under a sampled span a trace stamp with the op's own span ID. A plain
// verb carries that span to the depot with TRACE and folds the depot's
// server span into its event; a batch's wall time is split evenly across
// its ops.
//
// The exchange is body, or when body is nil the codec's pipeline of ops.
// It returns how many ops it answered and the transport error that stopped
// it; that error fails every unanswered op and closes the connection.
// cancel, when it fires, abandons the exchange with ErrCancelled. run sets
// res[i].Err for every op that failed, and returns the error of an
// exchange that never started (breaker refusal or cancel already fired).
func (c *Client) run(addr string, ops []BatchOp, res []BatchResult, batched, retryable bool, cancel <-chan struct{}, body func(*wire.Conn) (int, error)) error {
	select {
	case <-cancel:
		// Abandoned before it began: no dial, no report.
		for i := range res {
			res[i].Err = ErrCancelled
		}
		return ErrCancelled
	default:
	}
	start := c.clock.Now()
	var spans []string
	if c.span.Sampled && c.span.Valid() {
		spans = make([]string, len(ops))
		for i := range spans {
			spans[i] = obs.NewSpanID()
		}
	}
	if body == nil {
		body = func(conn *wire.Conn) (int, error) { return pipeline(conn, ops, res, batched) }
	}
	op := body
	var trailer string
	if spans != nil && !batched {
		op = func(conn *wire.Conn) (int, error) {
			if err := conn.WriteLine(OpTrace, c.span.TraceID, spans[0], "1"); err != nil {
				return 0, err
			}
			if _, err := conn.ReadStatus(); err != nil {
				return 0, err
			}
			conn.CaptureStatusTrailer(obs.TrailerPrefix)
			n, err := body(conn)
			// Take the depot's span summary before the connection returns to
			// the pool, and disarm capture for the next op on it.
			trailer = conn.StatusTrailer()
			conn.CaptureStatusTrailer("")
			return n, err
		}
	}
	if cancel != nil {
		op = cancellable(op, cancel)
	}
	var (
		answered        int
		reused, retried bool
		err             error
	)
	if c.health != nil {
		err = c.health.Allow(addr)
	}
	refused := err != nil
	if !refused {
		answered, reused, retried, err = c.exchange(addr, retryable, op)
	}
	latency := c.clock.Since(start) / time.Duration(len(ops))
	for i := range ops {
		if i >= answered {
			res[i].Err = err
		}
		opErr := res[i].Err
		outcome := health.Classify(opErr)
		ev := obs.Event{
			Time: start, Verb: ops[i].Verb, Depot: addr, Latency: latency,
			Outcome: outcome.String(), Reused: reused, Retried: retried, Batched: batched,
		}
		switch {
		case refused:
			ev.Outcome = "circuit-open"
		case errors.Is(opErr, ErrCancelled):
			ev.Outcome = "cancelled"
		case c.health != nil:
			c.health.Report(addr, outcome, latency)
		}
		if c.obs == nil {
			continue
		}
		if opErr != nil {
			ev.Err = opErr.Error()
		} else {
			ev.Bytes = ops[i].payload()
		}
		if spans != nil {
			ev.Trace, ev.Span, ev.Parent = c.span.TraceID, spans[i], c.span.SpanID
			if ws, ok := obs.ParseWireSpan(trailer); ok {
				ev.Server = &ws
			}
		}
		c.obs.Record(ev)
	}
	if refused {
		return err
	}
	return nil
}

// cancellable wraps an exchange so that cancel firing mid-exchange closes
// the connection out from under it (unblocking any pending read) and the
// exchange fails with ErrCancelled.
func cancellable(op func(*wire.Conn) (int, error), cancel <-chan struct{}) func(*wire.Conn) (int, error) {
	return func(conn *wire.Conn) (int, error) {
		stop := make(chan struct{})
		done := make(chan struct{})
		killed := false
		go func() {
			defer close(done)
			select {
			case <-cancel:
				killed = true
				conn.Close()
			case <-stop:
			}
		}()
		n, err := op(conn)
		close(stop)
		<-done
		if killed {
			// Even a completed exchange is discarded: the race already has
			// a winner, and the closed conn must not be pooled.
			return 0, ErrCancelled
		}
		return n, err
	}
}

// exchange runs op on a pooled or fresh connection, retrying once on a
// fresh dial when retryable and a reused connection turns out stale. It
// reports how many ops op answered, whether it ran on a pooled connection
// and whether it was retried. When that fresh dial fails, its error is the
// one returned: the depot is refused or unreachable, as a client that
// dialed per call would have found.
func (c *Client) exchange(addr string, retryable bool, op func(*wire.Conn) (int, error)) (answered int, reused, retried bool, err error) {
	conn, reused, err := c.acquire(addr, retryable)
	if err != nil {
		return 0, reused, false, err
	}
	answered, err = op(conn)
	if err != nil && reused && retryable && isConnReuseError(err) {
		conn.Close()
		fresh, derr := c.dialFresh(addr)
		if derr != nil {
			return answered, reused, false, derr
		}
		answered, err = op(fresh)
		c.release(addr, fresh, err)
		return answered, reused, true, err
	}
	c.release(addr, conn, err)
	return answered, reused, false, err
}

// do runs one batchable verb as a plain request line through run: written
// and flushed once, read by the codec, reported like a batch sub-op. On
// failure the result is zero but for Err.
func (c *Client) do(addr string, op BatchOp, cancel <-chan struct{}) BatchResult {
	if err := op.validate(nil); err != nil {
		return BatchResult{Err: err}
	}
	ops, res := [1]BatchOp{op}, [1]BatchResult{}
	// Only reads and absolute updates are re-sent after a stale pooled
	// connection: ALLOCATE mints, STORE appends and DELETE decrements.
	retryable := op.Verb == OpLoad || op.Verb == OpProbe || op.Verb == OpExtend
	c.run(addr, ops[:], res[:], false, retryable, cancel, nil)
	if res[0].Err != nil {
		return BatchResult{Err: res[0].Err}
	}
	return res[0]
}

// call runs a verb outside the codec (STATUS, METRICS, COPY) through run:
// op names it for the report, and exchange writes its request and parses
// its reply. A remote error fails the op but keeps the connection.
func (c *Client) call(addr string, op BatchOp, retryable bool, exchange func(*wire.Conn) error) error {
	ops, res := [1]BatchOp{op}, [1]BatchResult{}
	c.run(addr, ops[:], res[:], false, retryable, nil, func(conn *wire.Conn) (int, error) {
		err := exchange(conn)
		if err != nil && !wire.IsRemoteAny(err) {
			return 0, err
		}
		res[0].Err = err
		return 1, nil
	})
	return res[0].Err
}

// Allocate requests a byte array of up to maxSize bytes for duration on the
// depot at addr, returning the capability trio.
func (c *Client) Allocate(addr string, maxSize int64, duration time.Duration, rel Reliability) (CapSet, error) {
	r := c.do(addr, AllocateOp(maxSize, duration, rel), nil)
	return r.Caps, r.Err
}

// Store appends data to the byte array named by the write capability and
// returns the new total length.
func (c *Client) Store(w Cap, data []byte) (int64, error) {
	r := c.do(w.Addr, BatchOp{Verb: OpStore, Cap: w, Ref: -1, Data: data}, nil)
	return r.NewLen, r.Err
}

// Load reads length bytes at offset from the byte array named by the read
// capability.
func (c *Client) Load(r Cap, offset, length int64) ([]byte, error) {
	res := c.do(r.Addr, LoadOp(r, offset, length), nil)
	return res.Data, res.Err
}

// LoadIntoCancel reads len(dst) bytes at offset into the caller-owned dst,
// avoiding the per-call allocation of Load; the core layer passes pooled
// buffers here. When cancel fires before the exchange completes, the
// connection is torn down and the call returns an error matching
// ErrCancelled — the transfer engine abandons the losing side of a hedged
// read this way. A nil cancel never fires. dst is only valid once the call
// returns nil; a cancelled or failed call may have written any prefix of
// it (a retry on a stale pooled connection overwrites it from the start).
func (c *Client) LoadIntoCancel(dst []byte, r Cap, offset int64, cancel <-chan struct{}) error {
	op := LoadOp(r, offset, int64(len(dst)))
	op.into = dst
	return c.do(r.Addr, op, cancel).Err
}

// Probe returns the metadata of the allocation named by the manage
// capability.
func (c *Client) Probe(m Cap) (AllocInfo, error) {
	r := c.do(m.Addr, BatchOp{Verb: OpProbe, Cap: m, Ref: -1}, nil)
	return r.Info, r.Err
}

// Extend pushes the allocation's expiration to now+duration (the Refresh
// tool uses this; paper §2.3). It returns the new expiration.
func (c *Client) Extend(m Cap, duration time.Duration) (time.Time, error) {
	r := c.do(m.Addr, ExtendOp(m, duration), nil)
	return r.Expires, r.Err
}

// Delete decrements the allocation's reference count; the depot frees the
// byte array when it reaches zero. It returns the remaining count.
func (c *Client) Delete(m Cap) (int, error) {
	r := c.do(m.Addr, BatchOp{Verb: OpDelete, Cap: m, Ref: -1}, nil)
	return r.RefCnt, r.Err
}

// Copy asks the depot holding src to transfer length bytes at offset
// directly into the allocation named by dst's WRITE capability — IBP's
// third-party transfer: the data moves depot-to-depot without passing
// through this client. It returns the destination's new length.
func (c *Client) Copy(src Cap, offset, length int64, dst Cap) (int64, error) {
	if src.Type != CapRead {
		return 0, fmt.Errorf("ibp: copy requires a READ source capability, got %s", src.Type)
	}
	if dst.Type != CapWrite {
		return 0, fmt.Errorf("ibp: copy requires a WRITE destination capability, got %s", dst.Type)
	}
	if offset < 0 || length < 0 {
		return 0, fmt.Errorf("ibp: copy: negative offset or length")
	}
	var newLen int64
	// Copy appends at the destination: not idempotent, never retried.
	err := c.call(src.Addr, BatchOp{Verb: OpCopy, Length: length}, false, func(conn *wire.Conn) error {
		err := conn.WriteLine(OpCopy, src.Token(), wire.Itoa(offset), wire.Itoa(length), dst.String())
		if err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 2 {
			return fmt.Errorf("ibp: copy: malformed response %v", toks)
		}
		newLen, err = wire.ParseInt("length", toks[1])
		return err
	})
	return newLen, err
}

// DepotMetrics is the operation-counter snapshot a depot reports via the
// METRICS verb.
type DepotMetrics struct {
	Allocates, Stores, Loads, Probes, Extends, Deletes int64
	BytesIn, BytesOut                                  int64
	Errors, Reaped, Connects, Restores, Violations     int64
}

// Metrics fetches the operation counters of the depot at addr.
func (c *Client) Metrics(addr string) (DepotMetrics, error) {
	var m DepotMetrics
	err := c.call(addr, BatchOp{Verb: "METRICS"}, true, func(conn *wire.Conn) error {
		if err := conn.WriteLine("METRICS"); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 13 {
			return fmt.Errorf("ibp: metrics: malformed response %v", toks)
		}
		dst := []*int64{
			&m.Allocates, &m.Stores, &m.Loads, &m.Probes, &m.Extends, &m.Deletes,
			&m.BytesIn, &m.BytesOut, &m.Errors, &m.Reaped, &m.Connects,
			&m.Restores, &m.Violations,
		}
		for i, tok := range toks {
			v, err := wire.ParseInt("counter", tok)
			if err != nil {
				return err
			}
			*dst[i] = v
		}
		return nil
	})
	return m, err
}

// Status asks the depot at addr for its capacity and duration limits.
func (c *Client) Status(addr string) (DepotStatus, error) {
	var st DepotStatus
	err := c.call(addr, BatchOp{Verb: OpStatus}, true, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpStatus); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 4 {
			return fmt.Errorf("ibp: status: malformed response %v", toks)
		}
		if st.TotalBytes, err = wire.ParseInt("total", toks[0]); err != nil {
			return err
		}
		if st.UsedBytes, err = wire.ParseInt("used", toks[1]); err != nil {
			return err
		}
		maxSec, err := wire.ParseInt("maxduration", toks[2])
		if err != nil {
			return err
		}
		st.MaxDuration = time.Duration(maxSec) * time.Second
		n, err := wire.ParseInt("allocations", toks[3])
		if err != nil {
			return err
		}
		st.Allocations = int(n)
		return nil
	})
	if err != nil {
		return DepotStatus{}, err
	}
	return st, nil
}
