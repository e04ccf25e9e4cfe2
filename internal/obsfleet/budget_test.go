package obsfleet_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
	"repro/internal/slo"
	"repro/internal/vclock"
)

// TestBurnOnBucketBoundaryMatchesClosedForm records a bad burst in the
// first bucket of a window and reads the window exactly on a bucket
// boundary, where the window's first bucket starts at now-window. The
// member's /slo (budget and rule burn) and obsd's /fleet/budget must both
// count every event in the window and report the closed form
// bad/(good+bad)/(1−target): one history, one burn function.
func TestBurnOnBucketBoundaryMatchesClosedForm(t *testing.T) {
	const target = 0.9
	window := 10 * time.Minute
	clk := vclock.NewVirtual(time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC))
	engine := slo.New(slo.Config{
		Clock: clk, Bucket: time.Minute,
		Objectives: []slo.Objective{{
			Name: "boundary", SLI: slo.IBPOps, Target: target, Window: window,
			Rules: []slo.BurnRule{{Name: "r", Long: window, Short: window, Burn: 0.5, Severity: "page"}},
		}},
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(engine.Metrics))
	mux.Handle("/slo", engine.Handler())
	member := httptest.NewServer(mux)
	t.Cleanup(member.Close)
	agg := obsfleet.New(obsfleet.Config{Clock: clk, Static: []lbone.ControlInfo{{
		Addr: strings.TrimPrefix(member.URL, "http://"), Component: "xnd", Name: "client",
	}}})
	ui := httptest.NewServer(agg.Surface().Mux())
	t.Cleanup(ui.Close)

	// Traffic before the window, then the fleet's sample at its start.
	for range 10 {
		engine.Record(slo.IBPOps, "d1", true)
	}
	clk.Advance(time.Minute)
	agg.Sweep()
	// The burst lands in the window's first bucket; good traffic follows
	// in the nine buckets after it, swept once a minute.
	const good, bad = 81, 5
	for range bad {
		engine.Record(slo.IBPOps, "d1", false)
	}
	for range 9 {
		clk.Advance(time.Minute)
		for range good / 9 {
			engine.Record(slo.IBPOps, "d1", true)
		}
		agg.Sweep()
	}
	clk.Advance(time.Minute) // now = window start + window: a bucket boundary
	agg.Sweep()
	want := float64(bad) / float64(good+bad) / (1 - target)

	var st slo.Status
	getInto(t, member.URL+"/slo", &st)
	if len(st.Objectives) != 1 || len(st.Objectives[0].Keys) != 1 {
		t.Fatalf("/slo objectives = %+v, want one objective with one key", st.Objectives)
	}
	ks := st.Objectives[0].Keys[0]
	if ks.Good != good || ks.Bad != bad || math.Abs(1-ks.BudgetRemaining-want) > 1e-9 {
		t.Errorf("/slo window = %d good, %d bad, burn %v; want %d, %d, %v",
			ks.Good, ks.Bad, 1-ks.BudgetRemaining, good, bad, want)
	}
	if len(st.Alerts) != 1 || math.Abs(st.Alerts[0].BurnLong-want) > 1e-9 {
		t.Errorf("/slo alerts = %+v, want the rule firing at long burn %v", st.Alerts, want)
	}

	var rep obsfleet.BudgetReport
	getInto(t, fmt.Sprintf("%s/fleet/budget?at=%s&window=%s", ui.URL,
		neturl.QueryEscape(clk.Now().Format(time.RFC3339Nano)), window), &rep)
	if len(rep.Objectives) != 1 {
		t.Fatalf("/fleet/budget objectives = %+v, want one", rep.Objectives)
	}
	bo := rep.Objectives[0]
	if bo.Good != good || bo.Bad != bad || math.Abs(bo.Consumed-want) > 1e-9 {
		t.Errorf("/fleet/budget = %v good, %v bad, consumed %v; want %d, %d, %v",
			bo.Good, bo.Bad, bo.Consumed, good, bad, want)
	}
}
