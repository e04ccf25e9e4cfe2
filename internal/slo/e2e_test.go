package slo_test

// End-to-end acceptance for the observability stack: a striped+replicated
// download rides out a faultnet-scripted depot outage, and while the user
// sees nothing but a successful download, the SLO engine fires a burn-rate
// alert keyed to the dead depot and the flight recorder cuts a postmortem
// bundle whose timeline matches the injected fault schedule. Everything
// runs on the virtual clock — no wall-clock sleeps.

import (
	"bytes"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/testbed"
)

func e2ePayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i>>8)
	}
	return out
}

func TestOutageFiresAlertAndCutsMatchingBundle(t *testing.T) {
	// The fault schedule: depot A dies an hour in and stays dead for two.
	outageFrom := testbed.Start.Add(time.Hour)
	outageTo := testbed.Start.Add(3 * time.Hour)
	tb, err := testbed.New(1,
		testbed.Spec{Name: "A", Site: geo.UTK, Avail: faultnet.Windows{Down: []faultnet.Window{{From: outageFrom, To: outageTo}}}},
		testbed.Spec{Name: "B", Site: geo.UCSD})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	clk := tb.Clock
	tb.Model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 20})
	tb.Model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})
	dead, live := tb.Infos["A"], tb.Infos["B"]

	// Production wiring in miniature: one flight recorder behind the
	// logger-free paths, one SLO engine fed by the same IBP event stream
	// via the tee, breaker transitions recorded as they happen.
	rec := obs.NewFlightRecorder(0)
	engine := slo.New(slo.Config{
		Clock: clk, Bucket: time.Minute, Recorder: rec,
		Objectives: []slo.Objective{{
			Name: "ibp-op-errors", SLI: slo.IBPOps, Target: 0.9, Window: time.Hour,
			Rules: []slo.BurnRule{{
				Name: "fast-burn", Long: 10 * time.Minute, Short: 2 * time.Minute,
				Burn: 2, Severity: "page",
			}},
		}},
	})
	sb := health.New(health.Config{
		Clock: clk, Seed: 1,
		OnTransition: func(addr string, from, to health.State, at time.Time) {
			rec.BreakerTransition(addr, from.String(), to.String(), at)
		},
	})
	client := ibp.NewClient(
		ibp.WithDialer(tb.Model.DialerFrom("UTK")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithOpTimeout(60*time.Second),
		ibp.WithHealth(sb),
		ibp.WithObserver(obs.Tee(rec, slo.ObserveIBP(engine))),
	)
	tl := &core.Tools{
		IBP: client, LBone: core.RegistrySource{Reg: tb.Registry},
		Clock: clk, Site: geo.UTK.Name, Loc: geo.UTK.Loc, Health: sb,
	}

	// Upload striped + replicated while everything is healthy: replica 0
	// stripes A,B,A,B and replica 1 rotates to B,A,B,A, so every extent
	// has one copy on each depot.
	data := e2ePayload(64 << 10)
	x, err := tl.Upload("f", data, core.UploadOptions{
		Replicas: 2, Fragments: 4, Checksum: true,
		Depots: []lbone.DepotInfo{dead, live},
	})
	if err != nil {
		t.Fatal(err)
	}
	if alerts := engine.Evaluate(); len(alerts) != 0 {
		t.Fatalf("healthy upload fired alerts: %+v", alerts)
	}

	// Into the outage. The static strategy prefers A (same site as the
	// client), so every extent burns a failed attempt on the dead depot
	// until its breaker opens, then fails over to B.
	clk.Advance(90 * time.Minute)
	root := obs.NewRootSpan()
	got, rep, err := tl.Download(x, core.DownloadOptions{Strategy: core.StrategyStatic, Span: root})
	if err != nil {
		t.Fatalf("download during outage must succeed from survivors: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download content mismatch")
	}
	if rep.Failovers == 0 {
		t.Fatal("expected failovers onto the surviving replica")
	}

	// (a) The burn-rate alert fires, keyed to the dead depot only.
	alerts := engine.Evaluate()
	var deadAlert *slo.Alert
	for i, a := range alerts {
		if a.Key == live.Addr {
			t.Fatalf("surviving depot fired an alert: %+v", a)
		}
		if a.Key == dead.Addr {
			deadAlert = &alerts[i]
		}
	}
	if deadAlert == nil || !deadAlert.Firing {
		t.Fatalf("no firing alert for the dead depot; alerts = %+v", alerts)
	}
	if deadAlert.BurnLong < 2 || deadAlert.BurnShort < 2 {
		t.Errorf("alert fired below threshold: long %.1f short %.1f", deadAlert.BurnLong, deadAlert.BurnShort)
	}
	firings := engine.Firings()
	if len(firings) != 1 {
		t.Fatalf("Firings() = %+v, want the one active interval", firings)
	}
	if f := firings[0]; f.Key != dead.Addr || f.FiredAt.Before(outageFrom) || f.FiredAt.After(outageTo) {
		t.Errorf("firing %+v outside the fault schedule [%v, %v]", f, outageFrom, outageTo)
	}

	// (b) Cut the postmortem bundle the way xnd does on a degraded
	// transfer: retained window + breaker snapshot, keyed by the trace.
	b := obs.Bundle{
		Trace: root.TraceID, Reason: "transfer-degraded", Component: "slo-e2e",
		CreatedAt: clk.Now(), Entries: rec.Recent(0),
	}
	for _, d := range sb.Snapshot() {
		b.Breakers = append(b.Breakers, obs.BreakerSnap{
			Addr: d.Addr, State: d.State.String(), Score: d.Score,
			Trips: int64(d.Trips), RetryAt: d.RetryAt,
		})
	}
	rec.StoreBundle(b)

	// The bundle's timeline must match the injected schedule: every failed
	// IBP event for the dead depot falls inside the outage window, and none
	// outside it (the upload-time events were all healthy).
	var deadFails, breakerOpens, alertEntries int
	for _, e := range b.Entries {
		switch {
		case e.Kind == obs.KindEvent && e.Depot == dead.Addr && e.Err != "":
			deadFails++
			if e.Time.Before(outageFrom) || e.Time.After(outageTo) {
				t.Errorf("failed op at %v outside the outage [%v, %v]: %+v", e.Time, outageFrom, outageTo, e)
			}
		case e.Kind == obs.KindBreaker && e.Depot == dead.Addr:
			if e.Msg == "breaker closed -> open" {
				breakerOpens++
				if e.Time.Before(outageFrom) || e.Time.After(outageTo) {
					t.Errorf("breaker opened at %v outside the outage: %+v", e.Time, e)
				}
			}
		case e.Kind == obs.KindAlert && e.Depot == dead.Addr:
			alertEntries++
		case e.Kind == obs.KindEvent && e.Depot == live.Addr && e.Err != "":
			t.Errorf("surviving depot has a failed op in the bundle: %+v", e)
		}
	}
	if deadFails < 3 {
		t.Errorf("bundle retained %d failed ops for the dead depot, want >= 3 (breaker threshold)", deadFails)
	}
	if breakerOpens != 1 {
		t.Errorf("bundle retained %d closed->open transitions, want 1", breakerOpens)
	}
	if alertEntries == 0 {
		t.Error("bundle retained no alert transition for the dead depot")
	}
	var deadSnap *obs.BreakerSnap
	for i, s := range b.Breakers {
		if s.Addr == dead.Addr {
			deadSnap = &b.Breakers[i]
		}
	}
	if deadSnap == nil || deadSnap.State != "open" {
		t.Errorf("breaker snapshot for the dead depot = %+v, want state open", deadSnap)
	}

	// The stored bundle is retrievable by trace, and — when the harness
	// asks for it — lands on disk for CI to pick up as an artifact.
	if back, ok := rec.BundleFor(root.TraceID); !ok || len(back.Entries) == 0 {
		t.Fatalf("BundleFor(%s) = %+v, %v", root.TraceID, back, ok)
	}
	if dir := os.Getenv("POSTMORTEM_DIR"); dir != "" {
		path, err := obs.WriteBundle(dir, b)
		if err != nil {
			t.Fatalf("WriteBundle(%s): %v", dir, err)
		}
		t.Logf("postmortem bundle written to %s", path)
	}
}
