package obs

// Distributed tracing vocabulary shared by every layer of the stack: the
// tools mint a root span per operation, core derives one span per extent,
// the transfer engine tags hedge attempts, the IBP client tags each wire
// exchange, and the depot returns a server-side span summary on the status
// line and keeps the span in its flight recorder. Everything correlates by
// trace ID; each process's recorder joins its part back into one
// cross-layer timeline (RenderTrace), and obsd joins the fleet's.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpanContext identifies one span within a trace. The zero value means "not
// traced"; only Sampled contexts propagate over the wire.
type SpanContext struct {
	TraceID string // 16 hex chars, shared by every span of one tool operation
	SpanID  string // 8 hex chars, unique per span
	Sampled bool   // propagate to depots and record events when true
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Child derives a new span under this one, preserving trace ID and
// sampling.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID(), Sampled: sc.Sampled}
}

// NewRootSpan mints a fresh sampled trace with its root span.
func NewRootSpan() SpanContext {
	return SpanContext{TraceID: randHex(8), SpanID: NewSpanID(), Sampled: true}
}

// NewSpanID mints a span identifier.
func NewSpanID() string { return randHex(4) }

func randHex(nBytes int) string {
	b := make([]byte, nBytes)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable anyway; degrade to a fixed
		// marker rather than panicking inside instrumentation.
		return strings.Repeat("0", nBytes*2)
	}
	return hex.EncodeToString(b)
}

// TrailerPrefix marks the server-span summary token a traced depot appends
// to its status line.
const TrailerPrefix = "ts="

// WireSpan is the depot-side span summary returned to a traced client on
// the status line: how long the request waited in the depot's accept queue,
// how long the storage backend took, the exchange total, payload bytes, and
// whether a capability violation was observed.
type WireSpan struct {
	SpanID    string
	Queue     time.Duration
	Backend   time.Duration
	Total     time.Duration
	Bytes     int64
	Violation bool
}

// EncodeTrailer renders the span as a single status-line token
// ("ts=<span>:<queue-ns>:<backend-ns>:<total-ns>:<bytes>:<violation>").
func (s WireSpan) EncodeTrailer() string {
	v := 0
	if s.Violation {
		v = 1
	}
	return fmt.Sprintf("%s%s:%d:%d:%d:%d:%d", TrailerPrefix, s.SpanID,
		s.Queue.Nanoseconds(), s.Backend.Nanoseconds(), s.Total.Nanoseconds(), s.Bytes, v)
}

// ParseWireSpan reverses EncodeTrailer. It reports false on anything that
// is not a well-formed trailer token.
func ParseWireSpan(tok string) (WireSpan, bool) {
	if !strings.HasPrefix(tok, TrailerPrefix) {
		return WireSpan{}, false
	}
	parts := strings.Split(strings.TrimPrefix(tok, TrailerPrefix), ":")
	if len(parts) != 6 || parts[0] == "" {
		return WireSpan{}, false
	}
	ns := make([]int64, 5)
	for i, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return WireSpan{}, false
		}
		ns[i] = v
	}
	return WireSpan{
		SpanID:    parts[0],
		Queue:     time.Duration(ns[0]),
		Backend:   time.Duration(ns[1]),
		Total:     time.Duration(ns[2]),
		Bytes:     ns[3],
		Violation: ns[4] != 0,
	}, true
}

// TraceJSONHandler serves /trace/<traceID> from a flight recorder as a
// JSON array of the Entries retained under that trace: 400 on a malformed
// ID, 404 when nothing is retained for it. Every daemon serves its
// /trace/ this way — a depot's array holds its KindSpan entries — and obsd
// joins the answers into one fleet timeline.
func TraceJSONHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if !ValidTraceID(id) {
			http.Error(w, "want /trace/<traceID> (hex)", http.StatusBadRequest)
			return
		}
		entries := fr.ForTrace(id)
		if len(entries) == 0 {
			http.Error(w, "no entries retained for trace "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(entries) //nolint:errcheck // client went away
	})
}

// RenderTrace joins every retained entry of one trace into a cross-layer
// timeline: tool root, core extents, transfer hedge attempts and IBP
// client operations — each with the depot's queue and backend time when
// the depot cooperated — indented by span parentage and timed relative to
// the trace start.
func (fr *FlightRecorder) RenderTrace(traceID string) string {
	es := fr.ForTrace(traceID)
	if len(es) == 0 {
		return fmt.Sprintf("trace %s: no recorded events\n", traceID)
	}
	// Depth by walking parent links; entries whose parent was not retained
	// render at the depth of the nearest known ancestor (or the root).
	parentOf := make(map[string]string, len(es))
	for _, e := range es {
		if e.Span != "" {
			parentOf[e.Span] = e.Parent
		}
	}
	depth := func(e Entry) int {
		d := 0
		for p := e.Parent; p != ""; d++ {
			pp, ok := parentOf[p]
			if !ok {
				break
			}
			p = pp
		}
		return d
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].Time.Before(es[j].Time) })
	t0 := es[0].Time
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d events)\n", traceID, len(es))
	for _, e := range es {
		label := e.Verb
		if label == "" {
			label = string(e.Kind)
		}
		indent := strings.Repeat("  ", depth(e))
		fmt.Fprintf(&b, "%9s %s%s", "+"+fmtSec(e.Time.Sub(t0).Seconds()), indent, label)
		if e.Depot != "" {
			fmt.Fprintf(&b, " %s", e.Depot)
		}
		if e.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", e.Bytes)
		}
		fmt.Fprintf(&b, " %s %s", fmtSec(time.Duration(e.LatencyNS).Seconds()), e.Outcome)
		if e.Msg != "" {
			fmt.Fprintf(&b, " %s", e.Msg)
		}
		if e.Err != "" {
			fmt.Fprintf(&b, "  %s", e.Err)
		}
		b.WriteByte('\n')
		if e.QueueNS != 0 || e.BackendNS != 0 {
			fmt.Fprintf(&b, "%9s %s  └ depot: queue %s backend %s\n",
				"", indent, time.Duration(e.QueueNS), time.Duration(e.BackendNS))
		}
	}
	return b.String()
}
