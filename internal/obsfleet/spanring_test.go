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

// TestSpanRingDropsAreCounted: a depot keeps its last 256 server spans,
// the one ring /fleet/trace reads, and counts every span it overwrites on
// its /metrics, so obsd's report can say how much trace history was shed.
func TestSpanRingDropsAreCounted(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{Secret: []byte("span-ring"), Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := ibp.NewClient().WithSpan(obs.NewRootSpan())
	defer c.Close()
	for i := 0; i < 300; i++ {
		if _, err := c.Status(d.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	member := httptest.NewServer(d.ObsMux())
	defer member.Close()

	// A handler retains its span just after it answers, so the last one
	// lands a moment after the client's call returns.
	const want = `obs_ring_dropped_total{ring="spans"} 44`
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
	if got, ok := report.RingDropped["spans"]; !ok || got != 44 {
		t.Fatalf("/fleet/report ring_dropped = %v, want spans: 44", report.RingDropped)
	}
}
