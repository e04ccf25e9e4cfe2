package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingBounds(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Add(Entry{Kind: KindEvent, Msg: fmt.Sprintf("e%d", i)})
	}
	got := fr.Recent(0)
	if len(got) != 4 {
		t.Fatalf("Recent(0) = %d entries, want ring size 4", len(got))
	}
	// Oldest first, and only the newest four survive.
	for i, e := range got {
		if want := fmt.Sprintf("e%d", 6+i); e.Msg != want {
			t.Errorf("entry %d = %q, want %q", i, e.Msg, want)
		}
	}
	if got[0].Seq >= got[1].Seq {
		t.Errorf("sequence numbers not increasing: %d then %d", got[0].Seq, got[1].Seq)
	}
	if fr.Total() != 10 {
		t.Errorf("Total() = %d, want 10", fr.Total())
	}
	if sub := fr.Recent(2); len(sub) != 2 || sub[1].Msg != "e9" {
		t.Errorf("Recent(2) = %+v, want the last two entries ending at e9", sub)
	}
}

func TestFlightRecorderObserverAndTrace(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(Event{Verb: "LOAD", Depot: "d1:6714", Trace: "abc123", Outcome: "ok", Bytes: 42})
	fr.Record(Event{Verb: "HEDGE", Depot: "d2:6714", Trace: "abc123", Outcome: "ok"})
	fr.Record(Event{
		Verb: "LOAD", Depot: "d1:6714", Trace: "abc123", Span: "c2", Parent: "c1", Outcome: "ok",
		Server: &WireSpan{SpanID: "sp01", Queue: time.Millisecond, Backend: 2 * time.Millisecond, Bytes: 42},
	})
	fr.Record(Event{Verb: "STORE", Depot: "d3:6714", Trace: "other0", Outcome: "error", Err: "boom"})

	kinds := map[EntryKind]int{}
	for _, e := range fr.Recent(0) {
		kinds[e.Kind]++
	}
	// One entry per event: the depot's numbers ride on the client's
	// event entry, and the depot's own span stays in the depot's recorder.
	if kinds[KindEvent] != 3 || kinds[KindHedge] != 1 || kinds[KindSpan] != 0 {
		t.Fatalf("kind counts = %v, want 3 events, 1 hedge, no span", kinds)
	}
	got := fr.ForTrace("abc123")
	if len(got) != 3 {
		t.Fatalf("ForTrace(abc123) = %d entries, want 3 (2 loads + hedge)", len(got))
	}
	if e := got[2]; e.Span != "c2" || e.Parent != "c1" ||
		e.QueueNS != int64(time.Millisecond) || e.BackendNS != int64(2*time.Millisecond) {
		t.Errorf("traced LOAD entry = %+v, want span c2 under c1 with the depot's queue 1ms and backend 2ms", e)
	}
	if got := fr.ForTrace("missing"); len(got) != 0 {
		t.Errorf("ForTrace(missing) = %d entries, want 0", len(got))
	}
}

func TestTeeSkipsNilAndFansOut(t *testing.T) {
	a, b := NewFlightRecorder(4), NewFlightRecorder(4)
	tee := Tee(a, nil, b)
	tee.Record(Event{Verb: "PROBE", Depot: "d1:6714"})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("tee totals = %d, %d, want 1, 1", a.Total(), b.Total())
	}
}

func TestLoggerTeesIntoRecorder(t *testing.T) {
	fr := NewFlightRecorder(16)
	var buf bytes.Buffer
	l := NewLogger(LogConfig{W: &buf, Component: "testd", Recorder: fr})

	l = l.With(KeyDepot, "d1:6714")
	l.Warn("store failed", KeyVerb, "STORE", KeyTrace, "feed01", "err", "disk full")
	// Debug is below the rendering threshold but must still be retained.
	l.Debug("quiet detail", "k", "v")

	if !strings.Contains(buf.String(), "store failed") || !strings.Contains(buf.String(), "component=testd") {
		t.Fatalf("rendered output missing record: %q", buf.String())
	}
	if strings.Contains(buf.String(), "quiet detail") {
		t.Errorf("debug record rendered despite Info threshold: %q", buf.String())
	}
	got := fr.Recent(0)
	if len(got) != 2 {
		t.Fatalf("recorder retained %d entries, want 2 (incl. below-threshold debug)", len(got))
	}
	e := got[0]
	if e.Kind != KindLog || e.Depot != "d1:6714" || e.Verb != "STORE" || e.Trace != "feed01" {
		t.Errorf("log entry did not fold attrs: %+v", e)
	}
	if e.Level != slog.LevelWarn.String() || e.Msg != "store failed" {
		t.Errorf("log entry level/msg = %q/%q", e.Level, e.Msg)
	}
	found := false
	for _, a := range e.Attrs {
		if a == "err=disk full" {
			found = true
		}
	}
	if !found {
		t.Errorf("extra attr not retained: %v", e.Attrs)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic and must not write anywhere.
	l := NopLogger()
	l.Info("into the void", "k", "v")
	if l.Enabled(nil, slog.LevelError) { //nolint:staticcheck // nil ctx fine for handler
		t.Error("NopLogger claims to be enabled")
	}
}

func TestWithTrace(t *testing.T) {
	fr := NewFlightRecorder(4)
	l := NewLogger(LogConfig{W: &bytes.Buffer{}, Recorder: fr})
	sc := SpanContext{TraceID: "deadbeefdeadbeef", SpanID: NewSpanID(), Sampled: true}
	WithTrace(l, sc).Info("hello")
	if got := fr.Recent(0); len(got) != 1 || got[0].Trace != sc.TraceID {
		t.Fatalf("WithTrace did not bind trace: %+v", got)
	}
	if WithTrace(l, SpanContext{}) != l {
		t.Error("invalid span context should return the logger unchanged")
	}
}

func TestForecastTracker(t *testing.T) {
	fr := NewFlightRecorder(16)
	ft := NewForecastTracker(fr)
	at := time.Date(2002, 1, 11, 15, 33, 48, 0, time.UTC)
	ft.Observe("UTK", "d1:6714", 10.0, 7.5, at)
	ft.Observe("UTK", "d1:6714", 8.0, 9.0, at.Add(time.Minute))
	ft.Observe("UTK", "d2:6714", 5.0, 5.0, at)

	recent := ft.Recent()
	if len(recent) != 3 {
		t.Fatalf("Recent() = %d samples, want 3", len(recent))
	}
	if recent[0].AbsError != 2.5 || recent[1].AbsError != 1.0 {
		t.Errorf("abs errors = %v, %v, want 2.5, 1.0", recent[0].AbsError, recent[1].AbsError)
	}
	if scoped := ft.RecentFor(map[string]bool{"d2:6714": true}); len(scoped) != 1 || scoped[0].Dst != "d2:6714" {
		t.Errorf("RecentFor scoped wrong: %+v", scoped)
	}

	byName := map[string]bool{}
	for _, m := range ft.Metrics() {
		byName[m.Name] = true
		if m.Name == "nws_forecast_abs_error_mean" && m.Labels[1].Value == "d1:6714" {
			if m.Value != 1.75 {
				t.Errorf("mean abs error = %v, want 1.75", m.Value)
			}
		}
	}
	for _, want := range []string{"nws_forecast_abs_error", "nws_forecast_abs_error_mean", "nws_forecast_samples_total"} {
		if !byName[want] {
			t.Errorf("metric %s missing", want)
		}
	}
	// The recorder saw each observation too.
	if n := len(fr.Recent(0)); n != 3 {
		t.Errorf("recorder retained %d forecast entries, want 3", n)
	}
}

func TestBundleStoreAndWrite(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(Event{Verb: "LOAD", Depot: "d1:6714", Trace: "aa11", Outcome: "error", Err: "link down"})
	b := Bundle{
		Trace: "aa11", Reason: "transfer-failure", Component: "xnd",
		CreatedAt: time.Date(2002, 1, 11, 16, 0, 0, 0, time.UTC),
		Entries:   fr.ForTrace("aa11"),
		Breakers:  []BreakerSnap{{Addr: "d1:6714", State: "open", Score: 0.1}},
	}
	fr.StoreBundle(b)
	got, ok := fr.BundleFor("aa11")
	if !ok || got.Reason != "transfer-failure" || len(got.Entries) != 1 {
		t.Fatalf("BundleFor(aa11) = %+v, %v", got, ok)
	}
	if d := b.Depots(); !d["d1:6714"] || len(d) != 1 {
		t.Errorf("Depots() = %v, want {d1:6714}", d)
	}

	dir := filepath.Join(t.TempDir(), "pm")
	path, err := WriteBundle(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "POSTMORTEM_aa11.json" {
		t.Errorf("bundle path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Bundle
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bundle not valid JSON: %v", err)
	}
	if back.Trace != "aa11" || len(back.Breakers) != 1 || back.Breakers[0].State != "open" {
		t.Errorf("round-tripped bundle = %+v", back)
	}
}

func TestBundleEviction(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < maxStoredBundles+3; i++ {
		fr.StoreBundle(Bundle{Trace: fmt.Sprintf("t%02d", i), Reason: "test"})
	}
	traces := fr.Bundles()
	if len(traces) != maxStoredBundles {
		t.Fatalf("stored %d bundles, want cap %d", len(traces), maxStoredBundles)
	}
	if _, ok := fr.BundleFor("t00"); ok {
		t.Error("oldest bundle should have been evicted")
	}
	if _, ok := fr.BundleFor(fmt.Sprintf("t%02d", maxStoredBundles+2)); !ok {
		t.Error("newest bundle missing")
	}
}

func TestValidTraceID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc123":                true,
		"deadbeefdeadbeef":      true,
		"":                      false,
		"XYZ":                   false,
		"abc-123":               false,
		strings.Repeat("a", 65): false,
		strings.Repeat("f", 64): true,
	} {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestPostmortemHandler(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(Event{Verb: "LOAD", Depot: "d1:6714", Trace: "cc33", Outcome: "error", Err: "refused"})
	fr.StoreBundle(Bundle{Trace: "bb22", Reason: "panic", Component: "ibp-depot"})
	now := func() time.Time { return time.Date(2002, 1, 11, 17, 0, 0, 0, time.UTC) }
	h := PostmortemHandler(fr, "ibp-depot", now)

	cases := []struct {
		name, path string
		code       int
		reason     string
	}{
		{"stored bundle", "/postmortem/bb22", 200, "panic"},
		{"on-demand from ring", "/postmortem/cc33", 200, "on-demand"},
		{"unknown trace", "/postmortem/9999", 404, ""},
		{"malformed id", "/postmortem/NOT-HEX", 400, ""},
		{"empty id", "/postmortem/", 400, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", tc.path, nil))
			if rr.Code != tc.code {
				t.Fatalf("GET %s = %d, want %d (body %q)", tc.path, rr.Code, tc.code, rr.Body.String())
			}
			if tc.code != 200 {
				return
			}
			var b Bundle
			if err := json.Unmarshal(rr.Body.Bytes(), &b); err != nil {
				t.Fatalf("body not JSON: %v", err)
			}
			if b.Reason != tc.reason {
				t.Errorf("reason = %q, want %q", b.Reason, tc.reason)
			}
		})
	}
}
