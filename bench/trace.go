package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls into each package's public API (and from the obs.Observer the IBP
// client already offers), kept in memory, and written out when the run
// ends. Nothing inside the program under test is edited.

// Span layers.
const (
	layerOp       = "op"       // one user operation, generator to verification
	layerCore     = "core"     // one core.Tools call
	layerIBP      = "ibp"      // one IBP verb as the client saw it
	layerRegistry = "registry" // one ExNodeDirectory call
	layerLBone    = "lbone"    // one DepotSource query
	layerBench    = "bench"    // the benchmark's own work (verify, housekeeping)
	layerRepaird  = "repaird"  // one Daemon.Sweep or Drain
)

// span is one timed call. Start and End are nanoseconds since the trace
// began; Parent is the span that caused it (0 = none) and Op the user
// operation it belongs to (0 = none, e.g. daemon work).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Sampled marks a user operation whose verbs carried trace context to
	// the depots (op spans only): its verbs have server spans.
	Sampled bool `json:"sampled,omitempty"`

	// IBP verb detail (layerIBP only).
	Depot   string `json:"depot,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Dialed  bool   `json:"dialed,omitempty"`
	Batched bool   `json:"batched,omitempty"`
	// Depot-reported server span, present when the verb carried one.
	HasServer bool  `json:"has_server,omitempty"`
	QueueNS   int64 `json:"server_queue_ns,omitempty"`
	BackendNS int64 `json:"server_backend_ns,omitempty"`
	TotalNS   int64 `json:"server_total_ns,omitempty"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// traceLog is the in-memory span store shared by every tracer of a run.
type traceLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// events are the raw observer events of user operations, kept for the
	// obs replay measurement.
	events []obs.Event
}

func newTraceLog() *traceLog { return &traceLog{t0: time.Now()} }

func (l *traceLog) since(t time.Time) int64 { return int64(t.Sub(l.t0)) }

func (l *traceLog) add(s span) int {
	l.mu.Lock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s.ID
}

func (l *traceLog) setEnd(id int, end int64) {
	l.mu.Lock()
	l.spans[id-1].End = end
	l.mu.Unlock()
}

func (l *traceLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func (l *traceLog) write(path string) error {
	data, err := json.Marshal(l.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracer is one causal context writing into a traceLog: the foreground
// client, or the repair daemon. Spans opened with begin nest; spans that
// arrive from callbacks (observer events, decorators) attach to whichever
// span is open. A nil *tracer records nothing, so call sites need no
// branches.
type tracer struct {
	log *traceLog
	// cur is the innermost open span and op the current user operation.
	// Callbacks may run on goroutines the program started (hedged
	// attempts, repair workers), hence atomics.
	cur atomic.Int64
	op  atomic.Int64
	// batchEnd lays the sub-operations of one BATCH exchange end to end:
	// the client reports each with the batch's start and 1/n of its wall
	// time.
	mu         sync.Mutex
	batchStart time.Time
	batchDepot string
	batchEnd   int64
}

func newTracer(l *traceLog) *tracer { return &tracer{log: l} }

// begin opens a span under the current one and makes it current.
func (t *tracer) begin(layer, name string) (id int, prev int64) {
	if t == nil {
		return 0, 0
	}
	prev = t.cur.Load()
	id = t.log.add(span{
		Parent: int(prev), Op: int(t.op.Load()), Layer: layer, Name: name,
		Start: t.log.since(time.Now()),
	})
	t.cur.Store(int64(id))
	return id, prev
}

// end closes the span begin returned and restores its parent as current.
func (t *tracer) end(id int, prev int64) {
	if t == nil {
		return
	}
	t.log.setEnd(id, t.log.since(time.Now()))
	t.cur.Store(prev)
}

// beginOp opens a user-operation span; it and every span until endOp carry
// its id as Op.
func (t *tracer) beginOp(name string, sampled bool) (id int, prev int64) {
	if t == nil {
		return 0, 0
	}
	id, prev = t.begin(layerOp, name)
	t.op.Store(int64(id))
	t.log.mu.Lock()
	t.log.spans[id-1].Op = id
	t.log.spans[id-1].Sampled = sampled
	t.log.mu.Unlock()
	return id, prev
}

func (t *tracer) endOp(id int, prev int64) {
	if t == nil {
		return
	}
	t.end(id, prev)
	t.op.Store(0)
}

// leaf records a finished child of the current span.
func (t *tracer) leaf(layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.log.add(span{
		Parent: int(t.cur.Load()), Op: int(t.op.Load()), Layer: layer, Name: name,
		Start: t.log.since(start), End: t.log.since(end),
	})
}

// Record implements obs.Observer: one span per IBP verb. The synthetic
// EXTENT events core emits under a sampled span describe verbs rather than
// being verbs, and are left out.
func (t *tracer) Record(ev obs.Event) {
	if t == nil {
		return
	}
	if ev.Verb == "EXTENT" {
		return
	}
	start := t.log.since(ev.Time)
	if ev.Batched {
		t.mu.Lock()
		if ev.Time.Equal(t.batchStart) && ev.Depot == t.batchDepot {
			start = t.batchEnd
		}
		t.batchStart, t.batchDepot = ev.Time, ev.Depot
		t.batchEnd = start + int64(ev.Latency)
		t.mu.Unlock()
	}
	s := span{
		Parent: int(t.cur.Load()), Op: int(t.op.Load()), Layer: layerIBP, Name: ev.Verb,
		Start: start, End: start + int64(ev.Latency),
		Depot: ev.Depot, Bytes: ev.Bytes, Outcome: ev.Outcome,
		Dialed: !ev.Reused && ev.Outcome != "circuit-open", Batched: ev.Batched,
	}
	if ev.Server != nil {
		s.HasServer = true
		s.QueueNS = int64(ev.Server.Queue)
		s.BackendNS = int64(ev.Server.Backend)
		s.TotalNS = int64(ev.Server.Total)
	}
	t.log.add(s)
	if s.Op != 0 {
		t.log.mu.Lock()
		t.log.events = append(t.log.events, ev)
		t.log.mu.Unlock()
	}
}

// tracedDirectory times every call into the exNode directory.
type tracedDirectory struct {
	inner interface {
		core.ExNodeDirectory
		ListExNodes() ([]registry.DirEntry, error)
	}
	tr *tracer
}

func (d tracedDirectory) PutExNode(name string, x *exnode.ExNode, prev int64) (int64, error) {
	t0 := time.Now()
	v, err := d.inner.PutExNode(name, x, prev)
	d.tr.leaf(layerRegistry, "put", t0, time.Now())
	return v, err
}

func (d tracedDirectory) GetExNode(name string) (*exnode.ExNode, int64, error) {
	t0 := time.Now()
	x, v, err := d.inner.GetExNode(name)
	d.tr.leaf(layerRegistry, "get", t0, time.Now())
	return x, v, err
}

func (d tracedDirectory) ListExNodes() ([]registry.DirEntry, error) {
	t0 := time.Now()
	es, err := d.inner.ListExNodes()
	d.tr.leaf(layerRegistry, "list", t0, time.Now())
	return es, err
}

// tracedSource times every depot-discovery query.
type tracedSource struct {
	inner core.DepotSource
	tr    *tracer
}

func (s tracedSource) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	t0 := time.Now()
	ds, err := s.inner.Query(req)
	s.tr.leaf(layerLBone, "query", t0, time.Now())
	return ds, err
}
