package depot

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/ibp"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Config parameterizes a depot.
type Config struct {
	// Advertised is the address baked into minted capabilities. If empty,
	// the listener's address is used.
	Advertised string
	// Secret signs capability tags. Required.
	Secret []byte
	// Capacity is the total bytes the depot will commit. Required.
	Capacity int64
	// MaxDuration caps allocation lifetimes; EXTEND beyond it is refused.
	MaxDuration time.Duration
	// MaxAllocSize caps a single allocation (0 = Capacity).
	MaxAllocSize int64
	// Backend stores the byte arrays (default: in-memory).
	Backend Backend
	// Clock drives expirations (default: real time).
	Clock vclock.Clock
	// Dialer opens outbound connections for third-party COPY transfers
	// (default: the system network; testbed.New sets the simulated WAN
	// from the depot's site, so depot-to-depot traffic is shaped too).
	Dialer netx.Dialer
	// Logger receives per-connection errors as structured records with
	// depot/verb/trace attrs (default: discard). Build it with
	// obs.NewLogger to also retain records in a flight recorder.
	Logger *slog.Logger
	// Recorder is the depot's one record of its traced spans (KindSpan
	// entries) and, with a Logger built by obs.NewLogger on it, of its log
	// records. It backs /trace/<trace> and /postmortem/<trace>, and a
	// handler panic cuts a bundle from it (default: a recorder of
	// obs.DefaultRecorderSize entries).
	Recorder *obs.FlightRecorder
	// PostmortemDir, when non-empty, is where panic postmortem bundles are
	// written as POSTMORTEM_<trace>.json files.
	PostmortemDir string
}

// maxConns bounds a depot's concurrent connections; the accept loop waits
// for a free slot, and that wait is the accept-queue delay a traced
// operation reports as its span's queue time.
const maxConns = 128

// Depot is a running IBP depot daemon.
type Depot struct {
	cfg     Config
	tags    *ibp.Tagger // mints and verifies capabilities under cfg.Secret
	srv     *wire.Server
	clock   vclock.Clock
	started time.Time
	sem     chan struct{}
	mu      sync.Mutex
	allocs  map[string]*allocation
	used    int64
	metrics Metrics
	out     *ibp.Client // third-party COPY's client; its parked connections close with the depot
}

type allocation struct {
	mu          sync.Mutex
	key         string
	handle      Handle
	maxSize     int64
	expires     time.Time
	reliability ibp.Reliability
	refcount    int
}

// Serve starts a depot listening on addr (e.g. "127.0.0.1:0") and serves
// until Close. It returns once the listener is ready.
func Serve(addr string, cfg Config) (*Depot, error) {
	if len(cfg.Secret) == 0 {
		return nil, errors.New("depot: config needs a secret")
	}
	if cfg.Capacity <= 0 {
		return nil, errors.New("depot: config needs a positive capacity")
	}
	if cfg.Backend == nil {
		cfg.Backend = NewMemBackend()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 30 * 24 * time.Hour
	}
	if cfg.MaxAllocSize <= 0 {
		cfg.MaxAllocSize = cfg.Capacity
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("depot: listen %s: %w", addr, err)
	}
	if cfg.Advertised == "" {
		cfg.Advertised = ln.Addr().String()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewFlightRecorder(0)
	}
	cfg.Logger = cfg.Logger.With(obs.KeyDepot, cfg.Advertised)
	d := &Depot{
		cfg:     cfg,
		tags:    ibp.NewTagger(cfg.Secret),
		clock:   cfg.Clock,
		started: cfg.Clock.Now(),
		sem:     make(chan struct{}, maxConns),
		allocs:  make(map[string]*allocation),
	}
	opts := []ibp.Option{ibp.WithClock(cfg.Clock)}
	if cfg.Dialer != nil {
		opts = append(opts, ibp.WithDialer(cfg.Dialer))
	}
	d.out = ibp.NewClient(opts...)
	if pb, ok := cfg.Backend.(PersistentBackend); ok {
		if err := d.restore(pb); err != nil {
			ln.Close()
			return nil, err
		}
	}
	d.srv = wire.Serve(ln, cfg.Logger, d.admit)
	return d, nil
}

// restore reloads the allocation table from a persistent backend after a
// restart, dropping anything already expired.
func (d *Depot) restore(pb PersistentBackend) error {
	metas, err := pb.LoadMeta()
	if err != nil {
		return err
	}
	now := d.clock.Now()
	for key, meta := range metas {
		expires := time.Unix(meta.Expires, 0).UTC()
		if now.After(expires) {
			if err := pb.Remove(key); err != nil {
				d.cfg.Logger.Warn("restore: dropping expired allocation failed", "alloc", key, "err", err)
			}
			continue
		}
		handle, err := pb.Open(key, meta.MaxSize)
		if err != nil {
			d.cfg.Logger.Warn("restore: reopening allocation failed", "alloc", key, "err", err)
			continue
		}
		d.allocs[key] = &allocation{
			key:         key,
			handle:      handle,
			maxSize:     meta.MaxSize,
			expires:     expires,
			reliability: ibp.Reliability(meta.Reliability),
			refcount:    meta.RefCount,
		}
		d.used += meta.MaxSize
		d.metrics.Restores.Add(1)
	}
	return nil
}

// persistMeta records an allocation's durable metadata when the backend
// supports it.
func (d *Depot) persistMeta(a *allocation) {
	pb, ok := d.cfg.Backend.(PersistentBackend)
	if !ok {
		return
	}
	a.mu.Lock()
	meta := AllocMeta{
		MaxSize:     a.maxSize,
		Expires:     a.expires.Unix(),
		Reliability: string(a.reliability),
		RefCount:    a.refcount,
	}
	a.mu.Unlock()
	if err := pb.SaveMeta(a.key, meta); err != nil {
		d.cfg.Logger.Error("persisting allocation metadata failed", "alloc", a.key, "err", err)
	}
}

// Addr returns the address the depot listens on.
func (d *Depot) Addr() string { return d.srv.Addr() }

// Advertised returns the address minted into capabilities.
func (d *Depot) Advertised() string { return d.cfg.Advertised }

// Close stops the listener, severs open client connections, waits for
// the handler goroutines, and closes the connections third-party COPYs
// left parked at other depots.
func (d *Depot) Close() error {
	err := d.srv.Close()
	d.out.Close()
	return err
}

// admit is the depot's per-connection hook on the shared accept loop: it
// waits for one of the maxConns slots and charges that wait to the
// connection's first traced operation, so a client can tell queueing at
// the depot from slowness on the wire. The connection's session, its
// connCtx, gives the slot back and cuts a postmortem if a handler panics.
func (d *Depot) admit(closing <-chan struct{}) wire.Opener {
	qstart := d.clock.Now()
	select {
	case d.sem <- struct{}{}:
	case <-closing:
		return nil
	}
	queueWait := d.clock.Since(qstart)
	return func(c *wire.Conn) wire.Session {
		d.metrics.Connects.Add(1)
		return &connCtx{Conn: c, d: d, queueWait: queueWait}
	}
}

// Dispatch implements wire.Session.
func (conn *connCtx) Dispatch(toks []string) bool { return conn.d.dispatch(conn, toks) }

// End implements wire.Session: it frees the connection's slot and cuts the
// postmortem of a handler panic.
func (conn *connCtx) End(panicked any) {
	<-conn.d.sem
	if panicked != nil {
		conn.d.panicPostmortem(conn, panicked)
	}
}

// panicPostmortem cuts a bundle from the flight recorder when a handler
// panics: the retained window plus the panic itself, filed under the
// trace of the operation that panicked, stored for /postmortem and written
// to PostmortemDir when configured.
func (d *Depot) panicPostmortem(conn *connCtx, r any) {
	rec := d.cfg.Recorder
	b := obs.Bundle{
		Reason: "panic", Component: "ibp-depot", CreatedAt: d.clock.Now(),
		Err: fmt.Sprint(r), Entries: rec.Recent(0),
		RingDropped: rec.Dropped(),
	}
	if conn.span != nil {
		b.Trace = conn.span.Trace
	}
	rec.StoreBundle(b)
	if d.cfg.PostmortemDir != "" {
		if path, err := obs.WriteBundle(d.cfg.PostmortemDir, b); err != nil {
			d.cfg.Logger.Error("writing panic postmortem failed", "err", err)
		} else {
			d.cfg.Logger.Error("wrote panic postmortem", "path", path)
		}
	}
}

// dispatch handles one request; it reports whether the connection should
// continue.
func (d *Depot) dispatch(conn *connCtx, toks []string) bool {
	op, args := toks[0], toks[1:]
	// The last operation's span is cleared here, not when it ends: a panic
	// unwinds past its end, and the postmortem must still find its trace.
	conn.span = nil
	if op == ibp.OpTrace {
		if err := d.handleTrace(conn, args); err != nil {
			d.cfg.Logger.Warn("operation failed", obs.KeyVerb, op, "err", err)
			return false
		}
		return true
	}
	if p := conn.pending; p != nil {
		// The previous exchange armed trace context: measure this operation
		// as a server span, return the summary as a status-line trailer and
		// keep the span in the recorder once the operation has answered.
		conn.pending = nil
		sp := &obs.Entry{
			Time: d.clock.Now(), Kind: obs.KindSpan, Trace: p.traceID,
			Span: obs.NewSpanID(), Parent: p.parent, Depot: d.cfg.Advertised,
			Verb: op, QueueNS: conn.queueWait.Nanoseconds(),
		}
		conn.queueWait = 0 // charged once per connection
		conn.span = sp
		conn.SetStatusTrailer(func() string {
			sp.LatencyNS = d.clock.Since(sp.Time).Nanoseconds()
			return obs.WireSpan{
				SpanID: sp.Span, Queue: time.Duration(sp.QueueNS), Backend: time.Duration(sp.BackendNS),
				Total: time.Duration(sp.LatencyNS), Bytes: sp.Bytes, Violation: sp.Outcome == spanViolation,
			}.EncodeTrailer()
		})
		defer func() {
			conn.SetStatusTrailer(nil)
			if sp.LatencyNS == 0 {
				sp.LatencyNS = d.clock.Since(sp.Time).Nanoseconds()
			}
			if sp.Outcome == "" {
				sp.Outcome = "ok"
			}
			d.cfg.Recorder.Add(*sp)
		}()
	}
	if op == ibp.OpQuit {
		return false
	}
	if err := d.serve(conn, op, args); err != nil {
		l := d.cfg.Logger
		if conn.span != nil {
			l = l.With(obs.KeyTrace, conn.span.Trace)
		}
		l.Warn("operation failed", obs.KeyVerb, op, "err", err)
		return false
	}
	return true
}

// serve is the depot's one verb switch: a plain request and a batch
// sub-op both run through it. A returned error means the connection must
// close; per-op failures are answered on the wire and return nil.
func (d *Depot) serve(conn *connCtx, op string, args []string) error {
	switch op {
	case ibp.OpAllocate:
		return d.handleAllocate(conn, args)
	case ibp.OpStore:
		return d.handleStore(conn, args)
	case ibp.OpLoad:
		return d.handleLoad(conn, args)
	case ibp.OpProbe:
		return d.handleProbe(conn, args)
	case ibp.OpExtend:
		return d.handleExtend(conn, args)
	case ibp.OpDelete:
		return d.handleDelete(conn, args)
	case ibp.OpStatus:
		return d.handleStatus(conn)
	case OpMetrics:
		return d.handleMetrics(conn)
	case ibp.OpCopy:
		return d.handleCopy(conn, args)
	case ibp.OpBatch:
		return d.handleBatch(conn, args)
	}
	return conn.WriteErr(wire.CodeUnsupported, "unknown operation %s", op)
}

// resolve authenticates the capability token that names verb's target
// and returns the live allocation, counting failures in the error metric.
// Inside a batch, an "@<i>" token names the set sub-op i's ALLOCATE minted;
// ibp.VerbCap picks the capability type either way.
func (d *Depot) resolve(conn *connCtx, verb, tok string) (*allocation, *wire.RemoteError) {
	want := ibp.VerbCap(verb)
	if i, ok := ibp.ParseBatchRef(tok); ok && conn.minted != nil {
		if i >= len(conn.minted) || conn.minted[i] == (ibp.CapSet{}) {
			return nil, &wire.RemoteError{
				Code:    wire.CodeNotFound,
				Message: fmt.Sprintf("batch reference @%d does not name a completed ALLOCATE", i),
			}
		}
		tok = conn.minted[i].Of(want).Token()
	}
	a, rerr := d.resolveInner(tok, want)
	if rerr != nil {
		d.metrics.Errors.Add(1)
	}
	return a, rerr
}

func (d *Depot) resolveInner(tok string, want ibp.CapType) (*allocation, *wire.RemoteError) {
	cap, err := ibp.ParseToken(d.cfg.Advertised, tok)
	if err != nil {
		return nil, &wire.RemoteError{Code: wire.CodeBadRequest, Message: "malformed capability"}
	}
	if cap.Type != want {
		return nil, &wire.RemoteError{Code: wire.CodeCapMismatch, Message: fmt.Sprintf("operation requires %s capability", want)}
	}
	if !d.tags.VerifyCap(cap) {
		d.metrics.Violations.Add(1)
		return nil, &wire.RemoteError{Code: wire.CodeDenied, Message: "capability verification failed"}
	}
	d.mu.Lock()
	a, ok := d.allocs[cap.Key]
	d.mu.Unlock()
	if !ok {
		return nil, &wire.RemoteError{Code: wire.CodeNotFound, Message: "no such allocation"}
	}
	if d.expired(a) {
		d.reapOne(a)
		return nil, &wire.RemoteError{Code: wire.CodeExpired, Message: "allocation expired"}
	}
	return a, nil
}

func (d *Depot) expired(a *allocation) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return d.clock.Now().After(a.expires)
}

// reapOne removes a single allocation and reclaims its space.
func (d *Depot) reapOne(a *allocation) {
	d.mu.Lock()
	if _, ok := d.allocs[a.key]; !ok {
		d.mu.Unlock()
		return
	}
	delete(d.allocs, a.key)
	d.used -= a.maxSize
	d.mu.Unlock()
	a.handle.Close()
	if err := d.cfg.Backend.Remove(a.key); err != nil {
		d.cfg.Logger.Warn("reaping allocation failed", "alloc", a.key, "err", err)
	}
	d.metrics.Reaped.Add(1)
}

// evictSoft reclaims soft allocations, earliest expiration first, until
// need bytes fit under capacity. Hard allocations are never touched — that
// is their contract.
func (d *Depot) evictSoft(need int64) {
	d.mu.Lock()
	var soft []*allocation
	for _, a := range d.allocs {
		a.mu.Lock()
		if a.reliability == ibp.Soft {
			soft = append(soft, a)
		}
		a.mu.Unlock()
	}
	free := d.cfg.Capacity - d.used
	d.mu.Unlock()
	sort.Slice(soft, func(i, j int) bool {
		soft[i].mu.Lock()
		ei := soft[i].expires
		soft[i].mu.Unlock()
		soft[j].mu.Lock()
		ej := soft[j].expires
		soft[j].mu.Unlock()
		return ei.Before(ej)
	})
	for _, a := range soft {
		if free >= need {
			return
		}
		free += a.maxSize
		d.cfg.Logger.Info("evicting soft allocation under space pressure", "alloc", a.key)
		d.reapOne(a)
	}
}

// ReapExpired sweeps all expired allocations and reports how many were
// reclaimed. Expiry is also enforced lazily on access, so calling this is
// an optimization, not a correctness requirement.
func (d *Depot) ReapExpired() int {
	d.mu.Lock()
	var doomed []*allocation
	now := d.clock.Now()
	for _, a := range d.allocs {
		a.mu.Lock()
		if now.After(a.expires) {
			doomed = append(doomed, a)
		}
		a.mu.Unlock()
	}
	d.mu.Unlock()
	for _, a := range doomed {
		d.reapOne(a)
	}
	return len(doomed)
}

func (d *Depot) handleAllocate(conn *connCtx, args []string) error {
	set, rerr := d.allocate(conn, args)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	if conn.minted != nil {
		conn.minted[len(conn.minted)-1] = set
	}
	return conn.WriteOK(set.Read.String(), set.Write.String(), set.Manage.String())
}

// allocate performs ALLOCATE without writing a response.
func (d *Depot) allocate(conn *connCtx, args []string) (ibp.CapSet, *wire.RemoteError) {
	fail := func(code, format string, fargs ...any) (ibp.CapSet, *wire.RemoteError) {
		return ibp.CapSet{}, &wire.RemoteError{Code: code, Message: fmt.Sprintf(format, fargs...)}
	}
	if len(args) != 3 {
		return fail(wire.CodeBadRequest, "ALLOCATE wants <maxsize> <duration> <reliability>")
	}
	maxSize, err := wire.ParseInt("maxsize", args[0])
	if err != nil || maxSize <= 0 {
		return fail(wire.CodeBadRequest, "bad maxsize %q", args[0])
	}
	durSec, err := wire.ParseInt("duration", args[1])
	if err != nil || durSec <= 0 {
		return fail(wire.CodeBadRequest, "bad duration %q", args[1])
	}
	rel := ibp.Reliability(args[2])
	if !ibp.ValidReliability(rel) {
		return fail(wire.CodeBadRequest, "bad reliability %q", args[2])
	}
	dur := time.Duration(durSec) * time.Second
	if dur > d.cfg.MaxDuration {
		return fail(wire.CodeDurationCap, "duration %v exceeds depot limit %v", dur, d.cfg.MaxDuration)
	}
	if maxSize > d.cfg.MaxAllocSize {
		return fail(wire.CodeQuotaReached, "size %d exceeds per-allocation limit %d", maxSize, d.cfg.MaxAllocSize)
	}

	key, err := ibp.NewKey()
	if err != nil {
		return fail(wire.CodeInternal, "key generation failed")
	}

	d.mu.Lock()
	if d.used+maxSize > d.cfg.Capacity {
		d.mu.Unlock()
		// IBP's volatile-storage semantics: soft allocations may be
		// reclaimed early under space pressure. Sweep expired
		// allocations first, then evict soft ones (earliest-expiring
		// first) until the request fits.
		d.ReapExpired()
		d.evictSoft(maxSize)
		d.mu.Lock()
	}
	if d.used+maxSize > d.cfg.Capacity {
		avail := d.cfg.Capacity - d.used
		d.mu.Unlock()
		return fail(wire.CodeNoSpace, "need %d bytes, %d available", maxSize, avail)
	}
	d.used += maxSize
	d.mu.Unlock()

	bt := d.clock.Now()
	handle, err := d.cfg.Backend.Create(key, maxSize)
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		d.mu.Lock()
		d.used -= maxSize
		d.mu.Unlock()
		return fail(wire.CodeInternal, "backend create failed")
	}
	a := &allocation{
		key:         key,
		handle:      handle,
		maxSize:     maxSize,
		expires:     d.clock.Now().Add(dur),
		reliability: rel,
		refcount:    1,
	}
	d.mu.Lock()
	d.allocs[key] = a
	d.mu.Unlock()
	d.persistMeta(a)

	d.metrics.Allocates.Add(1)
	return d.tags.MintSet(d.cfg.Advertised, key), nil
}

func (d *Depot) handleStore(conn *connCtx, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "STORE wants <writecap> <len>")
	}
	n, err := wire.ParseInt("len", args[1])
	if err != nil || n < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[1])
	}
	// The payload follows the request line regardless of capability
	// validity, so consume it before replying with any error. The buffer is
	// pooled: a handle that takes ownership keeps it as storage, and every
	// other path puts it back.
	data, err := conn.ReadBlobPooled(n)
	if err != nil {
		return fmt.Errorf("reading store payload: %w", err)
	}
	a, rerr := d.resolve(conn, ibp.OpStore, args[0])
	if rerr != nil {
		bufpool.Put(data)
		return conn.remoteErr(rerr)
	}
	bt := d.clock.Now()
	a.mu.Lock()
	newLen, owned, err := appendPooled(a.handle, data)
	a.mu.Unlock()
	conn.noteBackend(d.clock.Since(bt))
	if !owned {
		bufpool.Put(data)
	}
	if err != nil {
		if errors.Is(err, ErrAllocFull) {
			return conn.WriteErr(wire.CodeNoSpace, "append exceeds allocation size %d", a.maxSize)
		}
		return conn.WriteErr(wire.CodeInternal, "append failed")
	}
	d.metrics.Stores.Add(1)
	d.metrics.BytesIn.Add(n)
	conn.noteBytes(n)
	return conn.WriteOK(wire.Itoa(n), wire.Itoa(newLen))
}

// appendPooled appends the bufpool buffer p to h, handing p itself over
// when h takes ownership of it (OwningAppender). It reports whether h did;
// if not, p is still the caller's to Put.
func appendPooled(h Handle, p []byte) (int64, bool, error) {
	if o, ok := h.(OwningAppender); ok {
		return o.AppendOwned(p)
	}
	n, err := h.Append(p)
	return n, false, err
}

func (d *Depot) handleLoad(conn *connCtx, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "LOAD wants <readcap> <offset> <len>")
	}
	off, err := wire.ParseInt("offset", args[1])
	if err != nil || off < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad offset %q", args[1])
	}
	n, err := wire.ParseInt("len", args[2])
	if err != nil || n < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[2])
	}
	seg, lease, rerr := d.lend(conn, ibp.OpLoad, args[0], off, n)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	defer lease.Release()
	// Counted before the reply: a client holding its payload must find
	// the load in METRICS.
	d.metrics.Loads.Add(1)
	d.metrics.BytesOut.Add(n)
	conn.noteBytes(n)
	if err := conn.WriteOK(wire.Itoa(n)); err != nil {
		return err
	}
	// WriteBlob flushes before returning, so the lease outlives every
	// reference to the segment.
	return conn.WriteBlob(seg)
}

// lend resolves the capability tok of a LOAD or COPY (verb) and pins
// [off, off+n) of its byte array, timed as the operation's backend time.
// It runs before any reply, so a DELETE or reap racing the operation
// cannot take the bytes away while they are on their way out.
func (d *Depot) lend(conn *connCtx, verb, tok string, off, n int64) ([]byte, Lease, *wire.RemoteError) {
	a, rerr := d.resolve(conn, verb, tok)
	if rerr != nil {
		return nil, nil, rerr
	}
	bt := d.clock.Now()
	seg, lease, err := a.handle.Lend(off, n)
	conn.noteBackend(d.clock.Since(bt))
	if err == nil {
		return seg, lease, nil
	}
	a.mu.Lock()
	have := a.handle.Len()
	a.mu.Unlock()
	if !inRange(off, n, have) {
		return nil, nil, &wire.RemoteError{Code: wire.CodeOutOfRange,
			Message: fmt.Sprintf("read [%d,%d) beyond written length %d", off, off+n, have)}
	}
	return nil, nil, &wire.RemoteError{Code: wire.CodeNotFound, Message: "no such allocation"}
}

func (d *Depot) handleProbe(conn *connCtx, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "PROBE wants <managecap>")
	}
	a, rerr := d.resolve(conn, ibp.OpProbe, args[0])
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	d.metrics.Probes.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	return conn.WriteOK(
		wire.Itoa(a.maxSize),
		wire.Itoa(a.handle.Len()),
		wire.Itoa(a.expires.Unix()),
		string(a.reliability),
		wire.Itoa(int64(a.refcount)),
	)
}

func (d *Depot) handleExtend(conn *connCtx, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "EXTEND wants <managecap> <duration>")
	}
	durSec, err := wire.ParseInt("duration", args[1])
	if err != nil || durSec <= 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad duration %q", args[1])
	}
	dur := time.Duration(durSec) * time.Second
	if dur > d.cfg.MaxDuration {
		return conn.WriteErr(wire.CodeDurationCap, "duration %v exceeds depot limit %v", dur, d.cfg.MaxDuration)
	}
	a, rerr := d.resolve(conn, ibp.OpExtend, args[0])
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	newExp := d.clock.Now().Add(dur)
	a.mu.Lock()
	if newExp.After(a.expires) {
		a.expires = newExp
	}
	exp := a.expires
	a.mu.Unlock()
	d.persistMeta(a)
	d.metrics.Extends.Add(1)
	return conn.WriteOK(wire.Itoa(exp.Unix()))
}

func (d *Depot) handleDelete(conn *connCtx, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "DELETE wants <managecap>")
	}
	a, rerr := d.resolve(conn, ibp.OpDelete, args[0])
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	a.mu.Lock()
	a.refcount--
	ref := a.refcount
	a.mu.Unlock()
	if ref <= 0 {
		d.reapOne(a)
	} else {
		d.persistMeta(a)
	}
	d.metrics.Deletes.Add(1)
	return conn.WriteOK(wire.Itoa(int64(ref)))
}

// handleCopy implements third-party transfer: this depot reads its own
// byte array and stores the bytes directly on the destination depot named
// by the client-supplied WRITE capability. The client never touches the
// data (paper §2.2's "routing" of files becomes a depot-to-depot move).
func (d *Depot) handleCopy(conn *connCtx, args []string) error {
	if len(args) != 4 {
		return conn.WriteErr(wire.CodeBadRequest, "COPY wants <readcap> <offset> <len> <destcap>")
	}
	off, err := wire.ParseInt("offset", args[1])
	if err != nil || off < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad offset %q", args[1])
	}
	n, err := wire.ParseInt("len", args[2])
	if err != nil || n < 0 || n > wire.MaxBlobLen {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[2])
	}
	dst, err := ibp.ParseCap(args[3])
	if err != nil || dst.Type != ibp.CapWrite {
		return conn.WriteErr(wire.CodeBadRequest, "bad destination capability")
	}
	seg, lease, rerr := d.lend(conn, ibp.OpCopy, args[0], off, n)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	defer lease.Release() // Store is synchronous and does not retain seg
	newLen, err := d.out.Store(dst, seg)
	if err != nil {
		return conn.WriteErr(wire.CodeUnavailable, "store to %s failed: %v", dst.Addr, err)
	}
	d.metrics.Loads.Add(1)
	d.metrics.BytesOut.Add(n)
	return conn.WriteOK(wire.Itoa(n), wire.Itoa(newLen))
}

func (d *Depot) handleStatus(conn *connCtx) error {
	d.mu.Lock()
	total, used, n := d.cfg.Capacity, d.used, len(d.allocs)
	d.mu.Unlock()
	return conn.WriteOK(
		wire.Itoa(total),
		wire.Itoa(used),
		wire.Itoa(int64(d.cfg.MaxDuration.Seconds())),
		wire.Itoa(int64(n)),
	)
}

// AllocationCount reports the number of live allocations (for tests and the
// depot CLI's status output).
func (d *Depot) AllocationCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocs)
}

// UsedBytes reports the committed capacity.
func (d *Depot) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Capacity reports the total bytes the depot serves.
func (d *Depot) Capacity() int64 { return d.cfg.Capacity }

// NextExpiry returns the earliest allocation expiration, or false when the
// depot holds no allocations.
func (d *Depot) NextExpiry() (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var earliest time.Time
	found := false
	for _, a := range d.allocs {
		a.mu.Lock()
		exp := a.expires
		a.mu.Unlock()
		if !found || exp.Before(earliest) {
			earliest, found = exp, true
		}
	}
	return earliest, found
}
