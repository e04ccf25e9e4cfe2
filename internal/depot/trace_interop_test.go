package depot

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ibp"
	"repro/internal/obs"
)

// TestTraceUntracedClientNewDepot is the other interop direction: a client
// that never sends TRACE (an "old client") against a depot that supports
// it. The wire exchange must be the classic protocol — no trailer on
// status lines, full data round-trip intact.
func TestTraceUntracedClientNewDepot(t *testing.T) {
	d, err := Serve("127.0.0.1:0", Config{
		Secret:   []byte("interop-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	c := ibp.NewClient()
	defer c.Close()
	caps, err := c.Allocate(d.Addr(), 256, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 256)
	if _, err := c.Store(caps.Write, payload); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, err := c.Load(caps.Read, 0, 256)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
}

// TestTraceEndToEndServerSpans drives a traced client against a real depot
// and checks the whole correlation chain: the client op event carries the
// depot's span summary (queue wait, backend time, bytes), and the depot
// retains matching spans queryable by trace ID.
func TestTraceEndToEndServerSpans(t *testing.T) {
	d, err := Serve("127.0.0.1:0", Config{
		Secret:   []byte("e2e-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	root := obs.NewRootSpan()
	col := obs.NewCollector(16)
	c := ibp.NewClient(ibp.WithObserver(col)).WithSpan(root)
	defer c.Close()

	caps, err := c.Allocate(d.Addr(), 512, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 512)
	if _, err := c.Store(caps.Write, payload); err != nil {
		t.Fatalf("store: %v", err)
	}
	if _, err := c.Load(caps.Read, 0, 512); err != nil {
		t.Fatalf("load: %v", err)
	}

	// Client side: every event stamped, every event carrying a server span.
	evs := col.Recent(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	var loadEv *obs.Event
	for i := range evs {
		e := &evs[i]
		if e.Trace != root.TraceID || e.Span == "" || e.Parent != root.SpanID {
			t.Errorf("event %s not stamped: %+v", e.Verb, e)
		}
		if e.Server == nil {
			t.Errorf("event %s missing server span", e.Verb)
			continue
		}
		if e.Server.Total <= 0 {
			t.Errorf("event %s server total = %v, want > 0", e.Verb, e.Server.Total)
		}
		if e.Verb == ibp.OpLoad {
			loadEv = e
		}
	}
	if loadEv == nil {
		t.Fatal("no LOAD event recorded")
	}
	if loadEv.Server.Bytes != 512 {
		t.Errorf("LOAD server span bytes = %d, want 512", loadEv.Server.Bytes)
	}

	// Depot side: spans retained under the trace ID, parented to the
	// client op spans, measuring queue wait and backend time.
	// (A handler retains its span after it has answered, so the last one
	// lands a moment after the client's Load returns.)
	spans := d.SpansForTrace(root.TraceID)
	for deadline := time.Now().Add(5 * time.Second); len(spans) < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		spans = d.SpansForTrace(root.TraceID)
	}
	if len(spans) != 3 {
		t.Fatalf("depot retained %d spans, want 3: %+v", len(spans), spans)
	}
	parents := map[string]string{}
	for _, e := range evs {
		parents[e.Verb] = e.Span
	}
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Errorf("span %s trace = %q, want %q", sp.SpanID, sp.TraceID, root.TraceID)
		}
		if want := parents[sp.Verb]; sp.Parent != want {
			t.Errorf("%s span parent = %q, want client op span %q", sp.Verb, sp.Parent, want)
		}
		if sp.QueueWait < 0 || sp.Backend < 0 || sp.Total <= 0 {
			t.Errorf("%s span timings = queue %v backend %v total %v", sp.Verb, sp.QueueWait, sp.Backend, sp.Total)
		}
		if sp.Violation || sp.Code != "" {
			t.Errorf("%s span unexpectedly failed: %+v", sp.Verb, sp)
		}
	}
	// Each op ran on its own connection, so the handlers retain their
	// spans in whatever order they finish: look the LOAD up by verb.
	for _, sp := range spans {
		if sp.Verb == ibp.OpLoad && sp.SpanID != loadEv.Server.SpanID {
			t.Errorf("depot LOAD span = %+v, want the one the client holds, %s", sp, loadEv.Server.SpanID)
		}
	}
}
