package depot

// Server-side spans. A traced client precedes an operation with
// "TRACE <traceid> <parentspan> <flags>" on the same connection; the depot
// acknowledges, measures the next operation (accept-queue wait, backend
// time, bytes, capability violations), returns the summary as a status-line
// trailer the client folds into its own event, and keeps the span as a
// KindSpan entry in its flight recorder, which serves /trace/<traceid>.

import (
	"time"

	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/wire"
)

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
	span      *obs.Entry   // the traced op running, or the last one until the next request
	minted    []ibp.CapSet // inside a BATCH: per sub-op so far, the set its ALLOCATE minted (else zero)
}

// noteBackend charges time spent in the storage backend to the active span.
func (cc *connCtx) noteBackend(d time.Duration) {
	if cc.span != nil {
		cc.span.BackendNS += d.Nanoseconds()
	}
}

// noteBytes credits payload bytes to the active span.
func (cc *connCtx) noteBytes(n int64) {
	if cc.span != nil {
		cc.span.Bytes += n
	}
}

// spanViolation is the outcome of a span whose capability failed
// verification.
const spanViolation = "violation"

// remoteErr reports a resolve failure to the client, recording on the
// active span its outcome: the error code, or "violation" for DENIED.
func (cc *connCtx) remoteErr(rerr *wire.RemoteError) error {
	if cc.span != nil {
		cc.span.Outcome = rerr.Code
		if rerr.Code == wire.CodeDenied {
			cc.span.Outcome = spanViolation
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
