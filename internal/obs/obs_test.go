package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func ev(verb, depot string, bytes int64, lat time.Duration, errText string) Event {
	out := "success"
	if errText != "" {
		out = "net-error"
	}
	return Event{Verb: verb, Depot: depot, Bytes: bytes, Latency: lat, Outcome: out, Err: errText}
}

func TestCollectorRingAndSeq(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Record(ev("LOAD", "d1:1", int64(i), time.Millisecond, ""))
	}
	if got := c.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recent := c.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) kept %d events, want ring size 4", len(recent))
	}
	// Oldest first, and the newest must be the 10th event.
	if recent[0].Seq != 7 || recent[3].Seq != 10 {
		t.Fatalf("Recent seqs = [%d..%d], want [7..10]", recent[0].Seq, recent[3].Seq)
	}
	if recent[3].Bytes != 9 {
		t.Fatalf("newest event bytes = %d, want 9", recent[3].Bytes)
	}
	if got := c.Recent(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Recent(2) = %+v, want the last two events", got)
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector(8)
	c.Record(ev("STORE", "d1:1", 100, 10*time.Millisecond, ""))
	c.Record(ev("STORE", "d1:1", 200, 30*time.Millisecond, ""))
	c.Record(ev("STORE", "d1:1", 0, 5*time.Millisecond, "conn refused"))
	c.Record(ev("LOAD", "d2:2", 50, time.Millisecond, ""))
	reused := ev("LOAD", "d2:2", 50, time.Millisecond, "")
	reused.Reused = true
	c.Record(reused)

	rows := c.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("got %d agg rows, want 2: %+v", len(rows), rows)
	}
	// Sorted by depot then verb: d1:1/STORE first.
	st := rows[0]
	if st.Depot != "d1:1" || st.Verb != "STORE" {
		t.Fatalf("row 0 = %s/%s, want d1:1/STORE", st.Depot, st.Verb)
	}
	if st.Count != 3 || st.Errors != 1 || st.Bytes != 300 {
		t.Fatalf("STORE agg = count %d errors %d bytes %d, want 3/1/300", st.Count, st.Errors, st.Bytes)
	}
	if st.Latency.N != 3 || st.Latency.Max < 0.029 {
		t.Fatalf("STORE latency summary wrong: %+v", st.Latency)
	}
	ld := rows[1]
	if ld.Reused != 1 || ld.Count != 2 {
		t.Fatalf("LOAD agg reuse = %d count = %d, want 1 and 2", ld.Reused, ld.Count)
	}

	if out := c.Render(); !strings.Contains(out, "d1:1") || !strings.Contains(out, "STORE") {
		t.Fatalf("Render missing rows:\n%s", out)
	}
	if out := c.RenderEvents(0); !strings.Contains(out, "conn refused") {
		t.Fatalf("RenderEvents missing error text:\n%s", out)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(32)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				c.Record(ev("PROBE", "d:9", 1, time.Microsecond, ""))
				c.Recent(4)
				c.Snapshot()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", c.Total())
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	var b strings.Builder
	WriteMetrics(&b, []Metric{
		{Name: "x_total", Help: "Things.", Type: "counter", Value: 3,
			Labels: []Label{{"depot", "a:1"}, {"verb", "LOAD"}}},
		{Name: "x_total", Value: 4.5,
			Labels: []Label{{"depot", "b:2"}, {"verb", "LOAD"}}},
		{Name: "y_gauge", Help: "A gauge.", Type: "gauge", Value: 2},
	})
	out := b.String()
	wantLines := []string{
		"# HELP x_total Things.",
		"# TYPE x_total counter",
		`x_total{depot="a:1",verb="LOAD"} 3`,
		`x_total{depot="b:2",verb="LOAD"} 4.5`,
		"# TYPE y_gauge gauge",
		"y_gauge 2",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
	// The HELP/TYPE header pair must appear exactly once per name.
	if strings.Count(out, "# TYPE x_total") != 1 {
		t.Fatalf("duplicate TYPE header:\n%s", out)
	}
}

func TestMetricsAndHealthzHandlers(t *testing.T) {
	c := NewCollector(8)
	c.Record(ev("LOAD", "d:1", 10, time.Millisecond, ""))
	srv := httptest.NewServer(MetricsHandler(func() []Metric { return c.CollectorMetrics("xnd_ibp_") }))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, `xnd_ibp_ops_total{depot="d:1",verb="LOAD"} 1`) {
		t.Fatalf("metrics body missing ops_total:\n%s", body)
	}

	hs := httptest.NewServer(HealthzHandler(nil))
	defer hs.Close()
	hr, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", hr.StatusCode)
	}
}
