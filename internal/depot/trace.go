package depot

// Server-side spans. A traced client precedes an operation with
// "TRACE <traceid> <parentspan> <flags>" on the same connection; the depot
// acknowledges, measures the next operation (accept-queue wait, backend
// time, bytes, capability violations), returns the summary as a status-line
// trailer the client folds into its own event, and retains the full span in
// a ring buffer served by /trace/<traceid> on the ObsMux.

import (
	"time"

	"repro/internal/ibp"
	"repro/internal/wire"
)

// ServerSpan is one traced operation as measured inside the depot.
type ServerSpan struct {
	TraceID   string        `json:"trace"`
	SpanID    string        `json:"span"`
	Parent    string        `json:"parent"` // the client operation's span ID
	Verb      string        `json:"verb"`
	Start     time.Time     `json:"start"`
	QueueWait time.Duration `json:"queue_wait_ns"` // accept-queue (connection bound) wait
	Backend   time.Duration `json:"backend_ns"`    // time inside the storage backend
	Total     time.Duration `json:"total_ns"`      // request-line read to status-line write
	Bytes     int64         `json:"bytes"`
	Violation bool          `json:"violation"` // capability verification failed
	Code      string        `json:"code"`      // wire error code ("" on success)
}

// traceRing is how many server spans a depot retains.
const traceRing = 256

// spansDropped reports how many retained spans were overwritten.
func (d *Depot) spansDropped() uint64 {
	d.spansMu.Lock()
	defer d.spansMu.Unlock()
	return d.spans.Dropped()
}

// SpansForTrace returns the retained server spans recorded under traceID,
// oldest first.
func (d *Depot) SpansForTrace(traceID string) []ServerSpan {
	d.spansMu.Lock()
	defer d.spansMu.Unlock()
	var out []ServerSpan
	for i := 0; i < d.spans.Len(); i++ {
		if s := d.spans.At(i); s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// pendingTrace is trace context received via TRACE, waiting for the
// operation it describes.
type pendingTrace struct {
	traceID string
	parent  string
}

// connCtx is the per-connection handler context: the framed connection plus
// trace state. Handlers receive it in place of the bare *wire.Conn; the
// embedding keeps every framing method available unchanged.
type connCtx struct {
	*wire.Conn
	d         *Depot
	queueWait time.Duration // accept-queue wait, charged to the first traced op
	pending   *pendingTrace
	span      *ServerSpan  // the traced op running, or the last one until the next request
	minted    []ibp.CapSet // inside a BATCH: per sub-op so far, the set its ALLOCATE minted (else zero)
}

// noteBackend charges time spent in the storage backend to the active span.
func (cc *connCtx) noteBackend(d time.Duration) {
	if cc.span != nil {
		cc.span.Backend += d
	}
}

// noteBytes credits payload bytes to the active span.
func (cc *connCtx) noteBytes(n int64) {
	if cc.span != nil {
		cc.span.Bytes += n
	}
}

// remoteErr reports a resolve failure to the client, recording the error
// code — and, for DENIED, the capability violation — on the active span.
func (cc *connCtx) remoteErr(rerr *wire.RemoteError) error {
	if cc.span != nil {
		cc.span.Code = rerr.Code
		if rerr.Code == wire.CodeDenied {
			cc.span.Violation = true
		}
	}
	return cc.WriteErr(rerr.Code, "%s", rerr.Message)
}

// handleTrace accepts trace context for the next operation on this
// connection. Flags bit 0 is the sampling bit; an unsampled TRACE is
// acknowledged but records nothing.
func (d *Depot) handleTrace(conn *connCtx, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "TRACE wants <traceid> <parentspan> <flags>")
	}
	if args[2] != "0" {
		conn.pending = &pendingTrace{traceID: args[0], parent: args[1]}
	}
	return conn.WriteOK()
}
