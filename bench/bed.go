package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
)

// opTimeout is how long an operation may take before it counts as failed.
const opTimeout = 10 * time.Second

// spanEvery is how many traced operations share one that carries trace
// context to the depots. The IBP client announces a span with a TRACE
// exchange of its own before each verb, a round trip that costs bulk_bare
// 8-13 % when every operation pays it; depot-side times are means over
// verbs, and a quarter of them is sample enough.
const spanEvery = 4

// object is one live file as the generator knows it: what was stored, and
// the exNode (and directory version) that names where.
type object struct {
	name    string
	x       *exnode.ExNode
	version int64
	size    int
	variant int
	layout  int
}

// sample is one finished user operation.
type sample struct {
	kind  opKind
	end   time.Time
	lat   time.Duration // time inside core.Tools calls
	dur   time.Duration // the whole operation: generator call to verified result
	bytes int64
	err   error
	// From the download Report (traced run only).
	extents, attempts, failovers, coded int
}

// client is one closed-loop user: it issues its next operation when the
// previous one has returned and been verified.
type client struct {
	id      int
	gen     *opGen
	objects []object
	fifo    int
	traced  int // operations run under a tracer so far
	samples []sample

	// Per-operation scratch.
	tr  *tracer
	lat time.Duration
}

// call times one core.Tools call; the operation's latency is the sum of
// its calls. Under a tracer it is also a core-layer span.
func (c *client) call(name string, f func()) {
	id, prev := c.tr.begin(layerCore, name)
	t0 := time.Now()
	f()
	c.lat += time.Since(t0)
	c.tr.end(id, prev)
}

// bed is one workload brought up: its fleet, its clients and the hooks
// that say how this workload reads and writes an object.
type bed struct {
	name string
	mix  mix
	// downloadFracs, when set, gives each client its own share of
	// downloads in place of the mix's.
	downloadFracs []float64
	nClients      int
	seed          int64
	fleet         *fleet
	pay           *payloads
	clients       []*client

	// tools serves every client; tracedTools is the same wiring with the
	// benchmark's observer and decorators attached, built on first use.
	tools       *core.Tools
	makeTools   func(tr *tracer) *core.Tools
	tracedTools *core.Tools

	// fifoReplace makes an upload overwrite the oldest of the client's
	// last writeSlots objects (0 = of all its objects) instead of the one
	// the generator picked.
	fifoReplace bool
	writeSlots  int
	// shape, when set, fixes what about an upload into a client's slot j
	// must not vary with the seed (see the workloads that set it).
	shape func(j int, preload bool, d *opDesc)
	fetch func(t *core.Tools, c *client, o *object, sc obs.SpanContext) ([]byte, *core.Report, error)
	store func(t *core.Tools, c *client, old *object, d opDesc, sc obs.SpanContext) (object, error)

	// faultMu orders fault injection against operations: a fault takes the
	// write side, so it lands between operations, never inside one. Every
	// layout tolerates the injected faults once they have landed; what a
	// depot dying mid-transfer does is the repo's faultnet tests' subject.
	faultMu sync.RWMutex
	// startFault, when set, is injected after set-up and midFault at the
	// midpoint of the measurement (degraded_full closes a depot at each).
	startFault, midFault func()
	// background, when set, runs beside the clients between
	// startBackground and its stop (repair_foreground's operator loop).
	background func(tr *traceLog, stop <-chan struct{})
	// counters adds the workload's own counter sources to a reading.
	counters func(cs *counterSet)
	// closers run at teardown, last first.
	closers []func()
	// fragSize is the typical fragment the workload moves in one verb; the
	// ladder prices wire, backend and checksums at it.
	fragSize int
	// observerStack is the workload's own obs wiring (nil when it has
	// none), for pricing a Record call.
	observerStack obs.Observer
	// Workload-specific state the measurements read.
	degraded *degraded
	repair   *repairBed
}

// mixOf is client i's operation mix.
func (b *bed) mixOf(i int) mix {
	m := b.mix
	if b.downloadFracs != nil {
		m.downloadFrac = b.downloadFracs[i]
	}
	return m
}

// opsHash pins the operation sequence every client of the bed is given.
func (b *bed) opsHash() string {
	mixes := make([]mix, b.nClients)
	for i := range mixes {
		mixes[i] = b.mixOf(i)
	}
	return opSequenceHash(b.seed, tracedOps, mixes...)
}

func (b *bed) inject(fault func()) {
	if fault != nil {
		fault()
	}
}

func (b *bed) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	if b.fleet != nil {
		b.fleet.close()
	}
}

func (b *bed) toolsFor(tr *tracer) *core.Tools {
	if tr == nil {
		return b.tools
	}
	if b.tracedTools == nil {
		b.tracedTools = b.makeTools(tr)
	}
	return b.tracedTools
}

// liveUserBytes is the payload the clients currently hold published.
func (b *bed) liveUserBytes() int64 {
	var sum int64
	for _, c := range b.clients {
		for _, o := range c.objects {
			sum += int64(o.size)
		}
	}
	return sum
}

// preload publishes every client's objects, clients in parallel.
func (b *bed) preload() error {
	b.clients = make([]*client, b.nClients)
	errs := make([]error, b.nClients)
	var wg sync.WaitGroup
	for i := range b.clients {
		c := &client{id: i, gen: newOpGen(b.seed, i, b.mixOf(i)), objects: make([]object, b.mix.objects)}
		b.clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range c.objects {
				d := c.gen.upload()
				if b.shape != nil {
					b.shape(j, true, &d)
				}
				o := object{name: fmt.Sprintf("%s/c%d/o%05d", b.name, c.id, j)}
				no, err := b.store(b.tools, c, &o, d, obs.SpanContext{})
				if err != nil {
					errs[c.id] = fmt.Errorf("preload %s: %w", o.name, err)
					return
				}
				c.objects[j] = no
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// doOp runs client c's next generated operation and verifies its result.
func (b *bed) doOp(c *client, tr *tracer) sample {
	t0 := time.Now()
	d := c.gen.next()
	b.faultMu.RLock()
	defer b.faultMu.RUnlock()

	tools := b.toolsFor(tr)
	var sc obs.SpanContext
	if tr != nil && c.traced%spanEvery == 0 {
		// A sampled root span makes the IBP client carry the trace to the
		// depots, which then report their queue/backend/total times back.
		sc = obs.NewRootSpan()
	}
	if tr != nil {
		c.traced++
	}
	c.tr, c.lat = tr, 0
	opID, opPrev := tr.beginOp(d.Kind.String(), sc.Sampled)
	s := sample{kind: d.Kind}
	switch d.Kind {
	case opDownload:
		o := &c.objects[d.Pick]
		got, rep, err := b.fetch(tools, c, o, sc)
		if err == nil {
			t0 := time.Now()
			if !bytes.Equal(got, b.pay.get(o.variant, o.size)) {
				err = fmt.Errorf("download %s: %d bytes returned differ from the %d stored", o.name, len(got), o.size)
			}
			tr.leaf(layerBench, "verify", t0, time.Now())
			// The result is pool-backed and ours to release (bufpool
			// ownership rule 4); a user that streams to disk does the same.
			bufpool.Put(got)
		}
		s.bytes, s.err = int64(o.size), err
		if rep != nil {
			s.extents = len(rep.Extents)
			s.failovers = rep.Failovers
			for _, e := range rep.Extents {
				s.attempts += len(e.Trail)
				if e.Coded {
					s.coded++
				}
			}
		}
	case opUpload:
		idx := d.Pick
		if b.fifoReplace {
			slots := len(c.objects)
			if b.writeSlots > 0 {
				slots = b.writeSlots
			}
			idx = len(c.objects) - slots + c.fifo
			c.fifo = (c.fifo + 1) % slots
		}
		if b.shape != nil {
			b.shape(idx, false, &d)
		}
		old := c.objects[idx]
		no, err := b.store(tools, c, &old, d, sc)
		if err == nil {
			c.objects[idx] = no
		}
		s.bytes, s.err = int64(d.Size), err
	}
	s.lat = c.lat
	if s.err == nil && s.lat > opTimeout {
		s.err = fmt.Errorf("%s took %v, over the %v limit", d.Kind, s.lat, opTimeout)
	}
	tr.endOp(opID, opPrev)
	s.end = time.Now()
	s.dur = s.end.Sub(t0)
	return s
}

// retire deletes the allocations of an exNode the client has replaced, so
// the live set stays the size the workload states. It is housekeeping
// between operations: not inside any timed call, though its verbs show in
// the trace under their own span. Depots that are gone or have forgotten
// the allocation answer with errors nobody needs.
func retire(t *core.Tools, tr *tracer, x *exnode.ExNode) {
	if x == nil {
		return
	}
	id, prev := tr.begin(layerBench, "retire")
	for _, m := range x.Mappings {
		if !m.Manage.IsZero() {
			t.IBP.Delete(m.Manage) //nolint:errcheck // best-effort cleanup
		}
	}
	tr.end(id, prev)
}

// withSpan returns tools whose IBP verbs run under sc, for calls that take
// no span of their own (uploads). A zero sc returns t itself.
func withSpan(t *core.Tools, sc obs.SpanContext) *core.Tools {
	if !sc.Valid() {
		return t
	}
	t2 := *t
	t2.IBP = t.IBP.WithSpan(sc)
	return &t2
}

func rotate(ds []lbone.DepotInfo, k int) []lbone.DepotInfo {
	k %= len(ds)
	return append(append(make([]lbone.DepotInfo, 0, len(ds)), ds[k:]...), ds[:k]...)
}

// runUntil drives every client in a closed loop until the deadline.
func (b *bed) runUntil(deadline time.Time) {
	b.runClients(len(b.clients), nil, func(*client) bool { return time.Now().Before(deadline) })
}

// runCount drives client 0 alone for exactly n operations, under tr when
// it is not nil. A bed takes one foreground tracer for its whole life: its
// traced Tools are built around the first.
func (b *bed) runCount(n int, tr *tracer) {
	left := n
	b.runClients(1, tr, func(*client) bool { left--; return left >= 0 })
}

func (b *bed) runClients(n int, tr *tracer, more func(*client) bool) {
	var wg sync.WaitGroup
	for _, c := range b.clients[:n] {
		c.samples = c.samples[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more(c) {
				c.samples = append(c.samples, b.doOp(c, tr))
			}
		}()
	}
	wg.Wait()
}

// startBackground starts the workload's background loop, if it has one,
// recording its spans into log when that is not nil. The returned function
// stops the loop and waits for it to end.
func (b *bed) startBackground(log *traceLog) (stop func()) {
	if b.background == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.background(log, quit)
	}()
	return func() {
		close(quit)
		<-done
	}
}

// dialingClient is the IBP client as the repo's binaries build it, one
// connection per verb, but for how it closes them: see resetDialer.
func dialingClient(opts ...ibp.Option) *ibp.Client {
	return ibp.NewClient(append([]ibp.Option{ibp.WithDialTimeout(2 * time.Second), ibp.WithDialer(resetDialer{})}, opts...)...)
}

// pooledClient keeps up to four idle connections per depot.
func pooledClient(opts ...ibp.Option) *ibp.Client {
	return dialingClient(append([]ibp.Option{ibp.WithPooling(4)}, opts...)...)
}
