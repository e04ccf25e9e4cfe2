package obsfleet

// Cross-daemon trace assembly. One tool operation leaves fragments of
// its trace all over the fleet, each in its process's flight recorder:
// the client's holds the root span and per-extent events, each depot's
// its server span of every exchange, the maintenance daemons' their
// repair spans, and a failed operation leaves a postmortem bundle. Every
// member answers /trace/<id> with the same obs.Entry array, and a bundle
// carries the same entries, so one conversion (timeline) serves both.
// The assembler fans the trace ID out to every member's /trace/<id> (and
// /postmortem/<trace> as a fallback when the live ring already aged the
// entries out) and stitches the answers into one time-ordered timeline.
//
// Partial fleets are flagged, never hidden: a member that cannot be
// reached is a detected failure (freestore taxonomy), not an empty
// trace, so the response says which members were silent and carries
// partial=true instead of pretending the timeline is complete.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// TimelineSpan is one retained entry in the joined timeline, with the
// member that served it.
type TimelineSpan struct {
	Member     string    `json:"member"`    // control address that served it
	Component  string    `json:"component"` // "ibp-depot", "maintaind", "xnd", ...
	Source     string    `json:"source"`    // "trace" or "postmortem"
	Kind       string    `json:"kind"`      // entry kind: "server-span" for a depot's own span
	Trace      string    `json:"trace"`
	Span       string    `json:"span,omitempty"`
	Parent     string    `json:"parent,omitempty"`
	Verb       string    `json:"verb,omitempty"`
	Depot      string    `json:"depot,omitempty"`
	Time       time.Time `json:"time"`
	DurationNS int64     `json:"duration_ns,omitempty"`
	QueueNS    int64     `json:"queue_ns,omitempty"`   // server-span: depot queue wait
	BackendNS  int64     `json:"backend_ns,omitempty"` // server-span: storage backend time
	Bytes      int64     `json:"bytes,omitempty"`
	Outcome    string    `json:"outcome,omitempty"`
	Err        string    `json:"err,omitempty"`
	Msg        string    `json:"msg,omitempty"`
}

// MemberTraceStatus reports how one member answered the fan-out.
type MemberTraceStatus struct {
	Addr      string `json:"addr"`
	Component string `json:"component"`
	Status    string `json:"status"` // "ok", "no-data", "unreachable"
	Spans     int    `json:"spans"`
	Err       string `json:"err,omitempty"`
}

// FleetTrace is the /fleet/trace/<id> document.
type FleetTrace struct {
	Trace   string              `json:"trace"`
	Partial bool                `json:"partial"` // some member could not be asked
	Members []MemberTraceStatus `json:"members"`
	Spans   []TimelineSpan      `json:"spans"`
}

// timeline places one member's entries — its /trace/ answer or its
// bundle's — in the joined timeline. A depot's server span names the
// depot by its member name.
func timeline(m *member, source, traceID string, entries []obs.Entry) []TimelineSpan {
	out := make([]TimelineSpan, 0, len(entries))
	for _, e := range entries {
		ts := TimelineSpan{
			Member: m.info.Addr, Component: m.info.Component, Source: source,
			Kind: string(e.Kind), Trace: traceID, Span: e.Span, Parent: e.Parent,
			Verb: e.Verb, Depot: e.Depot, Time: e.Time, DurationNS: e.LatencyNS,
			QueueNS: e.QueueNS, BackendNS: e.BackendNS, Bytes: e.Bytes,
			Outcome: e.Outcome, Err: e.Err, Msg: e.Msg,
		}
		if e.Kind == obs.KindSpan {
			ts.Depot = m.info.Name
		}
		out = append(out, ts)
	}
	return out
}

// AssembleTrace fans traceID out to the current member set and joins
// the answers. It never errors: an unreachable fleet yields an empty,
// partial document — the HTTP handler decides the status code.
func (a *Aggregator) AssembleTrace(traceID string) FleetTrace {
	ft := FleetTrace{Trace: traceID, Spans: []TimelineSpan{}}
	for _, m := range a.Snapshot() {
		st := MemberTraceStatus{Addr: m.info.Addr, Component: m.info.Component}
		spans, err := a.memberTrace(m, traceID)
		switch {
		case err == nil && len(spans) > 0:
			st.Status = "ok"
			st.Spans = len(spans)
			ft.Spans = append(ft.Spans, spans...)
		case err == nil:
			st.Status = "no-data"
		default:
			st.Status = "unreachable"
			st.Err = err.Error()
			ft.Partial = true
		}
		ft.Members = append(ft.Members, st)
	}
	sort.SliceStable(ft.Spans, func(i, j int) bool {
		return ft.Spans[i].Time.Before(ft.Spans[j].Time)
	})
	return ft
}

// memberTrace asks one member for a trace: /trace/<id> first, then the
// postmortem bundle when the live ring had nothing (entries age out of
// a small ring long before the incident's bundle does). A 404 from
// both is "no spans" (nil error); transport failures are unreachable.
func (a *Aggregator) memberTrace(m *member, traceID string) ([]TimelineSpan, error) {
	entries, err := getJSON[[]obs.Entry](a, m.info.Addr, "/trace/"+traceID)
	if err == nil {
		return timeline(m, "trace", traceID, *entries), nil
	}
	var herr *httpStatusError
	if !errors.As(err, &herr) {
		return nil, err // transport failure: member unreachable
	}
	if herr.status != http.StatusNotFound {
		// 400s mean the member rejected the ID; the handler validated it
		// already, so treat anything else as that member misbehaving.
		return nil, err
	}
	// Live ring empty; try the postmortem bundle.
	bundle, err := getJSON[obs.Bundle](a, m.info.Addr, "/postmortem/"+traceID)
	if err != nil {
		var herr *httpStatusError
		if errors.As(err, &herr) {
			return nil, nil // no bundle either: genuinely no data
		}
		return nil, err
	}
	return timeline(m, "postmortem", traceID, bundle.Entries), nil
}

// FleetTraceHandler serves /fleet/trace/<id>: 400 on a malformed trace
// ID, 404 when the whole (reachable) fleet has nothing, 200 otherwise —
// with partial=true when silent members mean the timeline may be
// incomplete.
func (a *Aggregator) FleetTraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/fleet/trace/")
		if !obs.ValidTraceID(id) {
			http.Error(w, "want /fleet/trace/<traceID> (hex)", http.StatusBadRequest)
			return
		}
		ft := a.AssembleTrace(id)
		if len(ft.Spans) == 0 && !ft.Partial {
			// Every member answered and none had the trace: unknown ID.
			http.Error(w, "no spans retained anywhere for trace "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ft) //nolint:errcheck // client went away
	})
}
