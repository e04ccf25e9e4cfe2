package depot

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestMetricsEndpoint drives real traffic through a depot and scrapes the
// /metrics endpoint — the acceptance path for the observability layer:
// bytes in/out, per-verb op counters, and the live allocation gauge must
// all appear in the exposition body.
func TestMetricsEndpoint(t *testing.T) {
	d, c := newDepot(t, Config{})
	set, err := c.Allocate(d.Addr(), 1<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("observable bytes")
	if _, err := c.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(set.Read, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.ObsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body := readAll(t, resp.Body)

	for _, want := range []string{
		`ibp_depot_ops_total{verb="allocate"} 1`,
		`ibp_depot_ops_total{verb="store"} 1`,
		`ibp_depot_ops_total{verb="load"} 1`,
		"ibp_depot_bytes_in_total 16",
		"ibp_depot_bytes_out_total 16",
		"ibp_depot_allocations 1",
		"ibp_depot_capacity_bytes 67108864",
		"# TYPE ibp_depot_ops_total counter",
		"# TYPE ibp_depot_allocations gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n%s", want, body)
		}
	}
	// The hour-long allocation must show up as a pending expiry.
	if strings.Contains(body, "ibp_depot_next_expiry_seconds 0\n") {
		t.Errorf("next_expiry_seconds = 0 with a live allocation\n%s", body)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	d, _ := newDepot(t, Config{})
	srv := httptest.NewServer(d.ObsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", resp.StatusCode)
	}

	d.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", resp.StatusCode)
	}
}

// TestTraceAndPostmortemHandlers table-drives the diagnostic endpoints:
// malformed IDs get 400, well-formed-but-unknown IDs get 404, and known
// traces serve JSON — for both /trace/<id> (retained server spans) and
// /postmortem/<trace> (stored or on-demand bundles).
func TestTraceAndPostmortemHandlers(t *testing.T) {
	rec := obs.NewFlightRecorder(32)
	d, _ := newDepot(t, Config{Recorder: rec})

	// Drive one traced operation so the depot retains real server spans.
	root := obs.NewRootSpan()
	c := ibp.NewClient().WithSpan(root)
	defer c.Close()
	set, err := c.Allocate(d.Addr(), 1024, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, []byte("spanned")); err != nil {
		t.Fatal(err)
	}

	// One stored bundle and one trace known only through ring entries.
	rec.StoreBundle(obs.Bundle{Trace: "feedc0de", Reason: "panic", Component: "ibp-depot"})
	rec.Record(obs.Event{Verb: ibp.OpLoad, Depot: d.Addr(), Trace: "0ddba11", Outcome: "error", Err: "timeout"})

	srv := httptest.NewServer(d.ObsMux())
	defer srv.Close()

	cases := []struct {
		name, path string
		code       int
		bodyHas    string
	}{
		{"trace known", "/trace/" + root.TraceID, 200, root.TraceID},
		{"trace unknown", "/trace/abcdef0123456789", 404, "no spans retained"},
		{"trace malformed", "/trace/NOT-A-TRACE", 400, "want /trace/<traceID>"},
		{"trace empty", "/trace/", 400, "want /trace/<traceID>"},
		{"trace overlong", "/trace/" + strings.Repeat("a", 65), 400, ""},
		{"postmortem stored", "/postmortem/feedc0de", 200, `"reason": "panic"`},
		{"postmortem on-demand", "/postmortem/0ddba11", 200, `"reason": "on-demand"`},
		{"postmortem unknown", "/postmortem/abcdef0123456789", 404, "unknown trace"},
		{"postmortem malformed", "/postmortem/NOT-A-TRACE", 400, "malformed trace id"},
		{"postmortem empty", "/postmortem/", 400, "malformed trace id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("GET %s = %d, want %d (body %q)", tc.path, resp.StatusCode, tc.code, body)
			}
			if tc.bodyHas != "" && !strings.Contains(body, tc.bodyHas) {
				t.Errorf("GET %s body missing %q:\n%s", tc.path, tc.bodyHas, body)
			}
			if tc.code == 200 {
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
					t.Errorf("GET %s content-type = %q, want JSON", tc.path, ct)
				}
			}
		})
	}
}

// panicBackend panics in Create for allocations of panicSize bytes: a real
// handler panic, on demand.
type panicBackend struct{ Backend }

const panicSize = 4093

func (b panicBackend) Create(key string, maxSize int64) (Handle, error) {
	if maxSize == panicSize {
		panic("backend exploded")
	}
	return b.Backend.Create(key, maxSize)
}

// A handler panic is contained to its own connection: that connection is
// closed, the next one is served as usual, and the depot's hook files a
// "panic" bundle under the trace of the operation that panicked.
func TestHandlerPanicClosesOnlyItsConnectionAndCutsPostmortem(t *testing.T) {
	rec := obs.NewFlightRecorder(32)
	d, c := newDepot(t, Config{Recorder: rec, Backend: panicBackend{NewMemBackend()}})
	dial := func() *wire.Conn {
		t.Helper()
		raw, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { raw.Close() })
		raw.SetDeadline(time.Now().Add(5 * time.Second))
		return wire.NewConn(raw)
	}
	exchange := func(conn *wire.Conn, toks ...string) error {
		t.Helper()
		if err := conn.WriteLine(toks...); err != nil {
			t.Fatal(err)
		}
		_, err := conn.ReadStatus()
		return err
	}

	root := obs.NewRootSpan()
	doomed := dial()
	if err := exchange(doomed, ibp.OpTrace, root.TraceID, root.SpanID, "1"); err != nil {
		t.Fatal(err)
	}
	if err := exchange(doomed, ibp.OpAllocate, wire.Itoa(panicSize), "3600", string(ibp.Hard)); err == nil || wire.IsRemoteAny(err) {
		t.Fatalf("ALLOCATE that panics the handler = %v, want the connection closed", err)
	}
	if err := exchange(dial(), ibp.OpStatus); err != nil {
		t.Fatalf("a second connection after the panic: %v", err)
	}
	if _, err := c.Allocate(d.Addr(), 1024, time.Hour, ibp.Hard); err != nil {
		t.Fatalf("allocate after the panic: %v", err)
	}

	srv := httptest.NewServer(d.ObsMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/postmortem/" + root.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/postmortem/<trace> = %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{`"reason": "panic"`, `"err": "backend exploded"`, `"trace": "` + root.TraceID + `"`} {
		if !strings.Contains(body, want) {
			t.Errorf("panic bundle missing %s:\n%s", want, body)
		}
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
