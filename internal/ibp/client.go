package ibp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Client is the IBP client library. The zero value is not usable; call
// NewClient. A Client is safe for concurrent use: each operation opens its
// own connection, matching the original IBP library's per-call model.
type Client struct {
	dialer      netx.Dialer
	clock       vclock.Clock
	dialTimeout time.Duration
	opTimeout   time.Duration
	pool        *wire.Pool
	health      *health.Scoreboard
	obs         obs.Observer
	span        obs.SpanContext // parent span for this client's operations
	traces      *traceSupport   // per-depot TRACE support cache, shared across WithSpan copies
	batches     *traceSupport   // per-depot BATCH support cache (same negotiate-once model)
}

// traceSupport remembers which depots rejected the TRACE verb, so a client
// pays the extra negotiation round trip at most once per old depot.
type traceSupport struct {
	mu          sync.Mutex
	unsupported map[string]bool
}

func (t *traceSupport) allowed(addr string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.unsupported[addr]
}

func (t *traceSupport) markUnsupported(addr string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unsupported[addr] = true
	t.mu.Unlock()
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
// sampled contexts are propagated to depots over the wire (via the TRACE
// verb, when the depot supports it) and stamped onto emitted events, with
// sc as the parent span. The returned client shares this client's pool,
// scoreboard, observer, and trace-support cache — deriving one per extent
// is cheap.
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
		traces:      &traceSupport{unsupported: make(map[string]bool)},
		batches:     &traceSupport{unsupported: make(map[string]bool)},
	}
	for _, o := range opts {
		o(c)
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
	if c.pool != nil {
		// The connection will be parked for reuse: pay for the large
		// transfer buffers once and amortize them over many operations.
		return wire.NewLongConn(raw), nil
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

// withConn runs one protocol exchange on a pooled or fresh connection,
// retrying once on a fresh dial when a reused connection turns out stale.
// op must be safe to re-run from scratch (all client exchanges are: they
// buffer their own output). With a scoreboard attached, the depot's
// circuit breaker is consulted first and the exchange's final outcome is
// reported back. With an observer attached, one event is emitted per
// operation; bytes is the payload size credited to a successful exchange.
func (c *Client) withConn(verb, addr string, bytes int64, retryable bool, op func(conn *wire.Conn) error) error {
	return c.withConnCancel(verb, addr, bytes, retryable, nil, op)
}

// withConnCancel is withConn with an optional cancel channel. When cancel
// fires mid-exchange the connection is closed out from under the operation
// (unblocking any pending read) and the error collapses to ErrCancelled;
// health reporting is skipped for cancelled exchanges and the observer sees
// outcome "cancelled". A nil cancel behaves exactly like withConn.
func (c *Client) withConnCancel(verb, addr string, bytes int64, retryable bool, cancel <-chan struct{}, op func(conn *wire.Conn) error) error {
	start := c.clock.Now()
	traced := c.span.Sampled && c.span.Valid()
	var opSpan, serverTrailer string
	if traced {
		opSpan = obs.NewSpanID()
		inner := op
		op = func(conn *wire.Conn) error {
			if err := c.sendTrace(conn, addr, opSpan); err != nil {
				return err
			}
			err := inner(conn)
			// Grab the depot's span summary before the connection returns to
			// the pool, and disarm capture so an untraced op reusing the
			// pooled connection is not surprised by leftover state.
			serverTrailer = conn.StatusTrailer()
			conn.CaptureStatusTrailer("")
			return err
		}
	}
	if cancel != nil {
		select {
		case <-cancel:
			return ErrCancelled
		default:
		}
		inner := op
		op = func(conn *wire.Conn) error {
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
			err := inner(conn)
			close(stop)
			<-done
			if killed {
				// Even a completed exchange is discarded: the race already
				// has a winner, and the closed conn must not be pooled.
				return ErrCancelled
			}
			return err
		}
	}
	if c.health != nil {
		if err := c.health.Allow(addr); err != nil {
			if c.obs != nil {
				ev := obs.Event{
					Time: start, Verb: verb, Depot: addr,
					Outcome: "circuit-open", Err: err.Error(),
				}
				c.stampTrace(&ev, opSpan, "")
				c.obs.Record(ev)
			}
			return err
		}
	}
	reused, retried, err := c.exchange(addr, retryable, op)
	elapsed := c.clock.Since(start)
	cancelled := errors.Is(err, ErrCancelled)
	if c.health != nil && !cancelled {
		c.health.Report(addr, health.Classify(err), elapsed)
	}
	if c.obs != nil {
		ev := obs.Event{
			Time: start, Verb: verb, Depot: addr, Latency: elapsed,
			Outcome: health.Classify(err).String(),
			Reused:  reused, Retried: retried,
		}
		if cancelled {
			ev.Outcome = "cancelled"
		}
		if err != nil {
			ev.Err = err.Error()
		} else {
			ev.Bytes = bytes
		}
		c.stampTrace(&ev, opSpan, serverTrailer)
		c.obs.Record(ev)
	}
	return err
}

// sendTrace propagates the client's span to the depot ahead of the real
// operation: "TRACE <traceid> <opspan> 1". A depot that predates the verb
// answers ERR UNSUPPORTED; the rejection is cached per address and the
// exchange proceeds untraced on the same connection (unknown verbs do not
// poison it). On acceptance, trailer capture is armed so the depot's
// server-span token comes back on the operation's own status line.
func (c *Client) sendTrace(conn *wire.Conn, addr, opSpan string) error {
	if !c.traces.allowed(addr) {
		return nil
	}
	if err := conn.WriteLine(OpTrace, c.span.TraceID, opSpan, "1"); err != nil {
		return err
	}
	if _, err := conn.ReadStatus(); err != nil {
		if wire.IsRemote(err, wire.CodeUnsupported) {
			c.traces.markUnsupported(addr)
			return nil
		}
		return err
	}
	conn.CaptureStatusTrailer(obs.TrailerPrefix)
	return nil
}

// stampTrace fills an event's trace-correlation fields when the client is
// operating under a sampled span.
func (c *Client) stampTrace(ev *obs.Event, opSpan, serverTrailer string) {
	if !(c.span.Sampled && c.span.Valid()) {
		return
	}
	ev.Trace = c.span.TraceID
	ev.Span = opSpan
	ev.Parent = c.span.SpanID
	if ws, ok := obs.ParseWireSpan(serverTrailer); ok {
		ev.Server = &ws
	}
}

// exchange is withConn without the health or event bookkeeping. It reports
// whether the exchange ran on a pooled connection and whether it was
// retried on a fresh dial.
func (c *Client) exchange(addr string, retryable bool, op func(conn *wire.Conn) error) (reused, retried bool, err error) {
	conn, reused, err := c.acquire(addr)
	if err != nil {
		return reused, false, err
	}
	err = op(conn)
	if err != nil && reused && retryable && isConnReuseError(err) {
		conn.Close()
		fresh, derr := c.dialFresh(addr)
		if derr != nil {
			return reused, false, err
		}
		err = op(fresh)
		c.release(addr, fresh, err)
		return reused, true, err
	}
	c.release(addr, conn, err)
	return reused, false, err
}

// Allocate requests a byte array of up to maxSize bytes for duration on the
// depot at addr, returning the capability trio.
func (c *Client) Allocate(addr string, maxSize int64, duration time.Duration, rel Reliability) (CapSet, error) {
	if maxSize <= 0 {
		return CapSet{}, errors.New("ibp: allocation size must be positive")
	}
	if !ValidReliability(rel) {
		return CapSet{}, fmt.Errorf("ibp: bad reliability %q", rel)
	}
	var set CapSet
	err := c.withConn(OpAllocate, addr, 0, false, func(conn *wire.Conn) error {
		err := conn.WriteLine(OpAllocate, wire.Itoa(maxSize), wire.Itoa(int64(duration.Seconds())), string(rel))
		if err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 3 {
			return fmt.Errorf("ibp: allocate: want 3 caps, got %d", len(toks))
		}
		for i, dst := range []*Cap{&set.Read, &set.Write, &set.Manage} {
			cap, err := ParseCap(toks[i])
			if err != nil {
				return fmt.Errorf("ibp: allocate: %w", err)
			}
			*dst = cap
		}
		if set.Read.Type != CapRead || set.Write.Type != CapWrite || set.Manage.Type != CapManage {
			return errors.New("ibp: allocate: capability types out of order")
		}
		return nil
	})
	if err != nil {
		return CapSet{}, err
	}
	return set, nil
}

// Store appends data to the byte array named by the write capability and
// returns the new total length.
func (c *Client) Store(w Cap, data []byte) (int64, error) {
	if w.Type != CapWrite {
		return 0, fmt.Errorf("ibp: store requires a WRITE capability, got %s", w.Type)
	}
	var newLen int64
	// Store is append-only and therefore NOT idempotent: never retry it
	// on a stale pooled connection.
	err := c.withConn(OpStore, w.Addr, int64(len(data)), false, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpStore, w.Token(), wire.Itoa(int64(len(data)))); err != nil {
			return err
		}
		if err := conn.WriteBlob(data); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 2 {
			return fmt.Errorf("ibp: store: malformed response %v", toks)
		}
		newLen, err = wire.ParseInt("length", toks[1])
		return err
	})
	return newLen, err
}

// Load reads length bytes at offset from the byte array named by the read
// capability.
func (c *Client) Load(r Cap, offset, length int64) ([]byte, error) {
	var buf []byte
	// Load buffers internally, so a retry on a stale pooled connection is
	// safe.
	err := c.load(r, offset, length, nil, func(conn *wire.Conn, n int64) error {
		var err error
		buf, err = conn.ReadBlob(n)
		return err
	})
	return buf, err
}

// LoadIntoCancel reads len(dst) bytes at offset into the caller-owned dst,
// avoiding the per-call allocation of Load; the core layer passes pooled
// buffers here. When cancel fires before the exchange completes, the
// connection is torn down and the call returns an error matching
// ErrCancelled — the transfer engine abandons the losing side of a hedged
// read this way. A nil cancel never fires. dst is only valid once the call
// returns nil; a cancelled or failed call may have written any prefix of
// it.
func (c *Client) LoadIntoCancel(dst []byte, r Cap, offset int64, cancel <-chan struct{}) error {
	// Reading into dst is idempotent — a retry on a stale pooled connection
	// simply overwrites from the start (cancelled exchanges never retry:
	// ErrCancelled is not a conn-reuse error).
	return c.load(r, offset, int64(len(dst)), cancel, func(conn *wire.Conn, n int64) error {
		return conn.ReadBlobInto(dst)
	})
}

func (c *Client) load(r Cap, offset, length int64, cancel <-chan struct{}, consume func(*wire.Conn, int64) error) error {
	if r.Type != CapRead {
		return fmt.Errorf("ibp: load requires a READ capability, got %s", r.Type)
	}
	if offset < 0 || length < 0 {
		return fmt.Errorf("ibp: load: negative offset or length")
	}
	return c.withConnCancel(OpLoad, r.Addr, length, true, cancel, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpLoad, r.Token(), wire.Itoa(offset), wire.Itoa(length)); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 1 {
			return fmt.Errorf("ibp: load: malformed response %v", toks)
		}
		n, err := wire.ParseInt("length", toks[0])
		if err != nil {
			return err
		}
		if n != length {
			return fmt.Errorf("ibp: load: depot returned %d bytes, want %d", n, length)
		}
		return consume(conn, n)
	})
}

// Probe returns the metadata of the allocation named by the manage
// capability.
func (c *Client) Probe(m Cap) (AllocInfo, error) {
	if m.Type != CapManage {
		return AllocInfo{}, fmt.Errorf("ibp: probe requires a MANAGE capability, got %s", m.Type)
	}
	var info AllocInfo
	err := c.withConn(OpProbe, m.Addr, 0, true, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpProbe, m.Token()); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 5 {
			return fmt.Errorf("ibp: probe: malformed response %v", toks)
		}
		if info.MaxSize, err = wire.ParseInt("maxsize", toks[0]); err != nil {
			return err
		}
		if info.Size, err = wire.ParseInt("size", toks[1]); err != nil {
			return err
		}
		exp, err := wire.ParseInt("expires", toks[2])
		if err != nil {
			return err
		}
		info.Expires = time.Unix(exp, 0).UTC()
		info.Reliability = Reliability(toks[3])
		ref, err := wire.ParseInt("refcount", toks[4])
		if err != nil {
			return err
		}
		info.RefCount = int(ref)
		return nil
	})
	if err != nil {
		return AllocInfo{}, err
	}
	return info, nil
}

// Extend pushes the allocation's expiration to now+duration (the Refresh
// tool uses this; paper §2.3). It returns the new expiration.
func (c *Client) Extend(m Cap, duration time.Duration) (time.Time, error) {
	if m.Type != CapManage {
		return time.Time{}, fmt.Errorf("ibp: extend requires a MANAGE capability, got %s", m.Type)
	}
	var out time.Time
	err := c.withConn(OpExtend, m.Addr, 0, true, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpExtend, m.Token(), wire.Itoa(int64(duration.Seconds()))); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 1 {
			return fmt.Errorf("ibp: extend: malformed response %v", toks)
		}
		exp, err := wire.ParseInt("expires", toks[0])
		if err != nil {
			return err
		}
		out = time.Unix(exp, 0).UTC()
		return nil
	})
	return out, err
}

// Delete decrements the allocation's reference count; the depot frees the
// byte array when it reaches zero. It returns the remaining count.
func (c *Client) Delete(m Cap) (int, error) {
	if m.Type != CapManage {
		return 0, fmt.Errorf("ibp: delete requires a MANAGE capability, got %s", m.Type)
	}
	var ref int64
	// Delete decrements a refcount: not idempotent, never retried.
	err := c.withConn(OpDelete, m.Addr, 0, false, func(conn *wire.Conn) error {
		if err := conn.WriteLine(OpDelete, m.Token()); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 1 {
			return fmt.Errorf("ibp: delete: malformed response %v", toks)
		}
		ref, err = wire.ParseInt("refcount", toks[0])
		return err
	})
	return int(ref), err
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
	err := c.withConn(OpCopy, src.Addr, length, false, func(conn *wire.Conn) error {
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

// MCopy is the multicast form of Copy: one read on the source depot fans
// out to several destination allocations. It returns per-destination
// results in order ("ok" entries are the destinations' new lengths;
// failed destinations carry -1). The call errors only when the source
// read itself fails.
func (c *Client) MCopy(src Cap, offset, length int64, dsts []Cap) ([]int64, error) {
	if src.Type != CapRead {
		return nil, fmt.Errorf("ibp: mcopy requires a READ source capability, got %s", src.Type)
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("ibp: mcopy needs at least one destination")
	}
	toks := []string{OpMCopy, src.Token(), wire.Itoa(offset), wire.Itoa(length), wire.Itoa(int64(len(dsts)))}
	for _, d := range dsts {
		if d.Type != CapWrite {
			return nil, fmt.Errorf("ibp: mcopy destination must be WRITE, got %s", d.Type)
		}
		toks = append(toks, d.String())
	}
	var out []int64
	err := c.withConn(OpMCopy, src.Addr, length*int64(len(dsts)), false, func(conn *wire.Conn) error {
		if err := conn.WriteLine(toks...); err != nil {
			return err
		}
		res, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(res) != len(dsts) {
			return fmt.Errorf("ibp: mcopy: want %d results, got %d", len(dsts), len(res))
		}
		out = out[:0]
		for _, tok := range res {
			v, err := wire.ParseInt("result", tok)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		return nil
	})
	return out, err
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
	err := c.withConn("METRICS", addr, 0, true, func(conn *wire.Conn) error {
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
	err := c.withConn(OpStatus, addr, 0, true, func(conn *wire.Conn) error {
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
