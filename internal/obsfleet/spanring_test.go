package obsfleet_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
)

// TestSpanRingDropsAreCounted: a depot keeps its server spans in its
// flight recorder (512 entries by default), the one ring /fleet/trace
// reads, and counts every entry it overwrites on its /metrics, so obsd's
// report can say how much trace history was shed.
func TestSpanRingDropsAreCounted(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{Secret: []byte("span-ring"), Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := ibp.NewClient().WithSpan(obs.NewRootSpan())
	defer c.Close()
	for i := 0; i < 600; i++ {
		if _, err := c.Status(d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	member := httptest.NewServer(d.ObsMux())
	defer member.Close()

	// A handler retains its span just after it answers, so the last one
	// lands a moment after the client's call returns.
	const want = `obs_ring_dropped_total{ring="flight"} 88`
	var body string
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(body, want) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := http.Get(member.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
	}
	if !strings.Contains(body, want) {
		t.Fatalf("depot /metrics lacks %s:\n%s", want, grepLines(body, "obs_ring_dropped_total"))
	}

	a := obsfleet.New(obsfleet.Config{Static: []lbone.ControlInfo{{
		Addr: strings.TrimPrefix(member.URL, "http://"), Component: "ibp-depot", Name: "D1",
	}}})
	a.Sweep()
	ui := httptest.NewServer(a.Surface().Mux())
	defer ui.Close()
	var report obsfleet.Report
	getInto(t, ui.URL+"/fleet/report", &report)
	if got, ok := report.RingDropped["flight"]; !ok || got != 88 {
		t.Fatalf("/fleet/report ring_dropped = %v, want flight: 88", report.RingDropped)
	}
}

// TestFleetTraceOneRecordPerExchange: a traced client and the depot it
// talks to are both fleet members. /fleet/trace holds each exchange once
// as the client's event and once as the depot's server span, with the
// depot's queue and backend time, and every entry names its span. Read
// back through a depot's postmortem bundle, a server span keeps its
// queue and backend time.
func TestFleetTraceOneRecordPerExchange(t *testing.T) {
	drec := obs.NewFlightRecorder(16)
	d, err := depot.Serve("127.0.0.1:0", depot.Config{Secret: []byte("one-record"), Capacity: 1 << 20, Recorder: drec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	depotSrv := httptest.NewServer(d.ObsMux())
	defer depotSrv.Close()

	crec := obs.NewFlightRecorder(0)
	clientSrv := httptest.NewServer(obs.Surface{
		Component: "xnd", Recorder: crec,
		Routes: map[string]http.Handler{"/trace/": obs.TraceJSONHandler(crec)},
	}.Mux())
	defer clientSrv.Close()
	root := obs.NewRootSpan()
	c := ibp.NewClient(ibp.WithObserver(crec)).WithSpan(root)
	defer c.Close()
	set, err := c.Allocate(d.Addr(), 64, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("one record per exchange")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(set.Read, 0, 8); err != nil {
		t.Fatal(err)
	}
	const exchanges = 3

	a := obsfleet.New(obsfleet.Config{Static: []lbone.ControlInfo{
		{Addr: strings.TrimPrefix(depotSrv.URL, "http://"), Component: "ibp-depot", Name: "D1"},
		{Addr: strings.TrimPrefix(clientSrv.URL, "http://"), Component: "xnd", Name: "client"},
	}})
	a.Sweep()
	// The depot records each span just after it has answered.
	serverSpans := func(ft obsfleet.FleetTrace) map[string]obsfleet.TimelineSpan {
		out := map[string]obsfleet.TimelineSpan{}
		for _, s := range ft.Spans {
			if s.Kind == "server-span" {
				out[s.Parent] = s
			}
		}
		return out
	}
	ft := a.AssembleTrace(root.TraceID)
	for deadline := time.Now().Add(5 * time.Second); len(serverSpans(ft)) < exchanges && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		ft = a.AssembleTrace(root.TraceID)
	}
	if ft.Partial || len(ft.Spans) != 2*exchanges {
		t.Fatalf("fleet trace = %+v, want %d client events and %d server spans", ft, exchanges, exchanges)
	}
	live := serverSpans(ft)
	var queue, backend int64
	for _, s := range ft.Spans {
		if s.Span == "" {
			t.Errorf("%s %s entry from %s carries no span ID: %+v", s.Kind, s.Verb, s.Component, s)
		}
		switch s.Kind {
		case "server-span":
			if s.Component != "ibp-depot" || s.Depot != "D1" || s.Outcome != "ok" {
				t.Errorf("server span = %+v, want an ok span from depot D1", s)
			}
			queue += s.QueueNS
			backend += s.BackendNS
		case string(obs.KindEvent):
			sp, ok := live[s.Span]
			if s.Component != "xnd" || !ok || sp.Verb != s.Verb {
				t.Errorf("client event %+v has no server span of its own", s)
			}
			if s.QueueNS != sp.QueueNS || s.BackendNS != sp.BackendNS {
				t.Errorf("client %s carries queue %d backend %d, depot span says %d and %d",
					s.Verb, s.QueueNS, s.BackendNS, sp.QueueNS, sp.BackendNS)
			}
		default:
			t.Errorf("unexpected %q entry: %+v", s.Kind, s)
		}
	}
	if queue <= 0 || backend <= 0 {
		t.Errorf("server spans sum to queue %d backend %d ns, want both > 0", queue, backend)
	}

	// Cut the depot's bundle of the trace, then age the trace out of its
	// ring: the server spans now come from /postmortem/, unchanged.
	drec.StoreBundle(obs.Bundle{Trace: root.TraceID, Reason: "test", Entries: drec.ForTrace(root.TraceID)})
	for i := 0; i < 16; i++ {
		drec.Add(obs.Entry{Kind: obs.KindLog, Msg: "filler"})
	}
	ft = a.AssembleTrace(root.TraceID)
	fromBundle := serverSpans(ft)
	if len(fromBundle) != exchanges {
		t.Fatalf("fleet trace after aging = %+v, want %d server spans from the bundle", ft, exchanges)
	}
	for parent, s := range fromBundle {
		l := live[parent]
		if s.Source != "postmortem" || s.Span != l.Span || s.QueueNS != l.QueueNS || s.BackendNS != l.BackendNS {
			t.Errorf("bundle span = %+v, want the live one %+v read from the postmortem", s, l)
		}
	}
}
