package obsfleet_test

// The obsd acceptance experiment (make obsd-smoke): a miniature fleet —
// three registry replicas, three depots (one on a scripted outage), an
// xnd-style client harness, and two maintaind shards — where every
// daemon self-registers its control endpoint in the L-Bone, and one
// obsd aggregator discovers the whole fleet through CLIST. One
// striped+replicated download rides through the outage; afterwards:
//
//	(a) /fleet/slo carries exactly the burn-rate alert the harness's
//	    own SLO engine fired, keyed to the dead depot;
//	(b) /fleet/trace/<id> joins that download's timeline with spans
//	    from at least three distinct daemons (client entries plus
//	    server spans from the surviving depots);
//	(c) the fleet exposition carries a latency-bucket exemplar whose
//	    trace ID resolves back through trace assembly;
//	(d) the fired alert leaves a captured pprof profile next to the
//	    postmortem bundle;
//	(e) the operator report lands as FLEET_report.json for CI;
//	(f) /fleet/query returns a nonzero error rate over exactly the
//	    scripted outage window (vclock-pinned at parameter) and zero
//	    before it, and /fleet/series inventories the retained series;
//	(g) /fleet/budget reports verdict fail for the tight objective while
//	    the outage burns, names the outage onset as the worst burn
//	    window, and flips to pass over the post-recovery window;
//	(h) /fleet/attribution pins the outage-window tail on the killed
//	    depot (the client burns its dial timeout against it), in the
//	    IBP exchange layer;
//	(i) the shutdown flush path writes a FLEET_budget.json that parses
//	    back with the same verdicts, plus an attribution snapshot.
//
// Data-plane traffic runs through faultnet on the virtual clock; the
// observability plane (scrapes, control registration) runs over real
// loopback HTTP, which is exactly the deployment shape.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
	"repro/internal/registry"
	"repro/internal/repaird"
	"repro/internal/slo"
	"repro/internal/testbed"
	"repro/internal/tsdb"
)

func smokePayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i>>8)
	}
	return out
}

func TestObsdFleetSmoke(t *testing.T) {
	artDir := os.Getenv("OBSD_SMOKE_DIR")
	if artDir == "" {
		artDir = t.TempDir()
	} else if err := os.MkdirAll(artDir, 0o755); err != nil {
		t.Fatal(err)
	}

	tb, err := testbed.New(11)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	clk, model := tb.Clock, tb.Model
	model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 20})

	// --- Three registry replicas (real TCP, always up). ---
	addrs := make([]string, 3)
	reps := make([]*registry.Replica, 3)
	srvs := make([]*lbone.Server, 3)
	for i := range addrs {
		srv, rep, err := registry.Serve("127.0.0.1:0", registry.Config{
			Members: []string{"placeholder:0"}, Seq: 1, Shards: 4, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i], reps[i], srvs[i] = srv.Addr(), rep, srv
	}
	view := registry.View{Seq: 2, Members: addrs, Shards: 4}
	for _, rep := range reps {
		if err := rep.Reconfigure(view); err != nil {
			t.Fatal(err)
		}
	}

	// The control-plane client: real clock and real network, because the
	// registry replicas and the scrape muxes live on real loopback
	// sockets. (Only data-plane clients ride faultnet's virtual WAN.)
	ctl := registry.NewQuorumClient(strings.Join(addrs, ","))
	t.Cleanup(func() { ctl.Close() })

	// announce serves mux on loopback HTTP and self-registers the control
	// endpoint in the L-Bone, the way every daemon's main() does.
	announce := func(mux http.Handler, component, name string) string {
		t.Helper()
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		addr := strings.TrimPrefix(srv.URL, "http://")
		if err := ctl.RegisterControl(lbone.ControlInfo{Addr: addr, Component: component, Name: name}); err != nil {
			t.Fatalf("control registration for %s: %v", name, err)
		}
		return addr
	}
	for i, s := range srvs {
		announce(s.Surface().Mux(), "lbone-server", addrs[i])
	}

	// --- Three depots; depot A dies for hours [1,3) of the run. ---
	outageFrom := testbed.Start.Add(time.Hour)
	outageTo := testbed.Start.Add(3 * time.Hour)
	// Depot A shares the client's site, and its machine drops off the
	// network for the same window: the client burns its dial timeout
	// against it instead of getting a fast refusal, which is the wall
	// time the tail-latency attribution pass must pin on the dead depot.
	model.SetLocalLink(faultnet.Link{
		RTT: time.Millisecond, Mbps: 100,
		Avail: faultnet.Windows{Down: []faultnet.Window{{From: outageFrom, To: outageTo}}},
	})
	type depotBox struct {
		info lbone.DepotInfo
		ctrl string
	}
	serveDepot := func(name string, site geo.Site, avail faultnet.Availability) depotBox {
		t.Helper()
		d, err := tb.Add(testbed.Spec{Name: name, Site: site, Avail: avail})
		if err != nil {
			t.Fatal(err)
		}
		return depotBox{info: tb.Infos[name], ctrl: announce(d.ObsMux(), "ibp-depot", name)}
	}
	dead := serveDepot("A", geo.UTK, faultnet.Windows{Down: []faultnet.Window{{From: outageFrom, To: outageTo}}})
	liveB := serveDepot("B", geo.UCSD, nil)
	liveC := serveDepot("C", geo.Harvard, nil)

	// --- The xnd-style client harness: its own recorder, trace
	// collector, SLO engine, and breaker scoreboard, all fed from one
	// IBP event stream, exposed on a control mux like a real daemon. ---
	rec := obs.NewFlightRecorder(0)
	coll := obs.NewCollector(0)
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
		ibp.WithDialer(model.DialerFrom("UTK")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithOpTimeout(60*time.Second),
		ibp.WithHealth(sb),
		ibp.WithObserver(obs.Tee(rec, coll, slo.ObserveIBP(engine))),
	)
	qc := registry.NewQuorumClient(strings.Join(addrs, ","))
	dir := registry.NewDirectory(qc)
	tl := &core.Tools{
		IBP: client, LBone: qc, Directory: dir,
		Clock: clk, Site: geo.UTK.Name, Loc: geo.UTK.Loc, Health: sb,
	}
	harnessStart := clk.Now()
	harnessAddr := announce(obs.Surface{
		Component: "xnd", Now: clk.Now, Started: harnessStart,
		Metrics: func() []obs.Metric { return coll.CollectorMetrics("ibp_client_") },
		SLO:     engine, Recorder: rec, Pprof: true,
		Routes: map[string]http.Handler{"/trace/": obs.TraceJSONHandler(rec)},
	}.Mux(), "xnd", "xnd-harness")

	// --- Two maintaind shards over the same directory. ---
	var maintainers []*repaird.Daemon
	for shard := 0; shard < 2; shard++ {
		mrec := obs.NewFlightRecorder(0)
		mtl := &core.Tools{
			IBP: ibp.NewClient(
				ibp.WithDialer(model.DialerFrom(geo.UCSD.Name)),
				ibp.WithClock(clk),
				ibp.WithDialTimeout(2*time.Second),
				ibp.WithOpTimeout(60*time.Second),
			),
			LBone: qc, Directory: dir, Clock: clk,
			Site: geo.UCSD.Name, Loc: geo.UCSD.Loc,
		}
		md, err := repaird.New(repaird.Config{
			Tools: mtl, ShardIndex: shard, ShardCount: 2, Recorder: mrec,
		})
		if err != nil {
			t.Fatal(err)
		}
		maintainers = append(maintainers, md)
		announce(md.Surface().Mux(), "maintaind", fmt.Sprintf("maintaind-%d", shard))
	}

	// --- The aggregator discovers everything through CLIST. ---
	agg := obsfleet.New(obsfleet.Config{
		Source: ctl, Clock: clk, ProfileDir: artDir, Retention: 24 * time.Hour,
	})

	// Phase A: healthy upload, striped over all three depots with two
	// rotated replicas, then published; both maintenance shards sweep.
	data := smokePayload(64 << 10)
	x, err := tl.Upload("smoke/f", data, core.UploadOptions{
		Replicas: 2, Fragments: 4, Checksum: true,
		Depots: []lbone.DepotInfo{dead.info, liveB.info, liveC.info},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tl.StoreExNode(x.Name, x, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range maintainers {
		if _, err := d.Sweep(); err != nil {
			t.Fatalf("maintaind sweep: %v", err)
		}
	}

	agg.Sweep()
	base := agg.FleetSLOView()
	if base.Partial {
		t.Fatalf("healthy fleet reported partial: %+v", base.Members)
	}
	if len(base.Members) != 9 {
		t.Fatalf("discovered %d members, want 9 (3 replicas + 3 depots + harness + 2 maintaind)", len(base.Members))
	}
	if len(base.Alerts) != 0 {
		t.Fatalf("healthy fleet fired alerts: %+v", base.Alerts)
	}
	if got := agg.Profiles(); len(got) != 0 {
		t.Fatalf("healthy sweep captured profiles: %+v", got)
	}

	// Two more healthy sweeps: one mid-baseline and one pinned exactly at
	// the outage boundary, so window queries over [outageFrom, outageTo]
	// hold a pre-burn sample and can witness the onset delta.
	clk.Advance(30 * time.Minute)
	agg.Sweep()
	clk.Advance(30 * time.Minute) // at the outage boundary
	onsetSweepAt := clk.Now()
	agg.Sweep()

	// Phase B: into the outage. The download must survive on failovers
	// while the client's SLO engine burns through its error budget on
	// the dead depot.
	clk.Advance(30 * time.Minute)
	root := obs.NewRootSpan()
	got, rep, err := tl.Download(x, core.DownloadOptions{Strategy: core.StrategyStatic, Span: root})
	if err != nil {
		t.Fatalf("download during outage must succeed from survivors: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download content mismatch")
	}
	if rep.Failovers == 0 {
		t.Fatal("expected failovers onto surviving replicas")
	}
	// The monitor keeps probing the dead depot throughout the outage;
	// every probe is a bad SLI event on its key (the stackmon feed,
	// collapsed into the harness engine for determinism).
	for i := 0; i < 30; i++ {
		engine.Record(slo.IBPOps, dead.info.Addr, false)
	}
	st := engine.Snapshot()
	var firing []slo.Alert
	for _, a := range st.Alerts {
		if a.Firing {
			firing = append(firing, a)
		}
	}
	if len(firing) == 0 {
		t.Fatalf("harness SLO engine fired nothing; alerts = %+v", st.Alerts)
	}

	// The harness cuts its postmortem bundle into the artifact dir, the
	// way xnd does on a degraded transfer.
	bundle := obs.Bundle{
		Trace: root.TraceID, Reason: "transfer-degraded", Component: "xnd",
		CreatedAt: clk.Now(), Entries: rec.Recent(0), RingDropped: rec.Dropped(),
	}
	rec.StoreBundle(bundle)
	bundlePath, err := obs.WriteBundle(artDir, bundle)
	if err != nil {
		t.Fatal(err)
	}

	midSweepAt := clk.Now()
	agg.Sweep()

	// (a) /fleet/slo matches the harness's own SLI view: same firing
	// set, keyed to the dead depot, attributed to the harness member.
	ui := httptest.NewServer(agg.Surface().Mux())
	defer ui.Close()
	var fleetSLO obsfleet.FleetSLO
	getInto(t, ui.URL+"/fleet/slo", &fleetSLO)
	if fleetSLO.Partial {
		t.Fatalf("fleet/slo partial with every member up: %+v", fleetSLO.Members)
	}
	if len(fleetSLO.Alerts) != len(firing) {
		t.Fatalf("fleet/slo has %d alerts, harness engine has %d firing: %+v", len(fleetSLO.Alerts), len(firing), fleetSLO.Alerts)
	}
	for i, fa := range fleetSLO.Alerts {
		if fa.Member != harnessAddr {
			t.Errorf("alert %d attributed to %s, want harness %s", i, fa.Member, harnessAddr)
		}
		if fa.Key != dead.info.Addr {
			t.Errorf("alert %d keyed %q, want the dead depot %q", i, fa.Key, dead.info.Addr)
		}
		if fa.Objective != firing[i].Objective || fa.Rule != firing[i].Rule {
			t.Errorf("alert %d = %s/%s, harness fired %s/%s", i, fa.Objective, fa.Rule, firing[i].Objective, firing[i].Rule)
		}
	}

	// (b) /fleet/trace joins the download's timeline across daemons.
	var ft obsfleet.FleetTrace
	getInto(t, ui.URL+"/fleet/trace/"+root.TraceID, &ft)
	if ft.Partial {
		t.Fatalf("fleet trace partial with every member up: %+v", ft.Members)
	}
	daemons := map[string]bool{}
	var serverSpans, clientEntries int
	for _, s := range ft.Spans {
		daemons[s.Member] = true
		switch {
		case s.Kind == "server-span":
			serverSpans++
		case s.Source == "trace" && s.Member == harnessAddr:
			clientEntries++
		}
	}
	if len(daemons) < 3 {
		t.Fatalf("trace %s joined spans from %d daemons, want >= 3: %+v", root.TraceID, len(daemons), ft.Members)
	}
	if serverSpans == 0 || clientEntries == 0 {
		t.Fatalf("joined timeline missing a side: %d server spans, %d client entries", serverSpans, clientEntries)
	}

	// (c) A fleet histogram bucket carries an exemplar whose trace ID
	// resolves back through trace assembly.
	expo := agg.Surface().Exposition()
	exRe := regexp.MustCompile(`fleet_ibp_client_op_latency_seconds_bucket\{[^}]*\} [0-9.e+-]+ # \{trace_id="([0-9a-f]+)"\}`)
	match := exRe.FindStringSubmatch(expo)
	if match == nil {
		t.Fatalf("fleet exposition has no latency exemplar:\n%s", grepLines(expo, "fleet_ibp_client_op_latency_seconds_bucket"))
	}
	exTrace := match[1]
	if exFt := agg.AssembleTrace(exTrace); len(exFt.Spans) == 0 {
		t.Fatalf("exemplar trace %s does not resolve through /fleet/trace", exTrace)
	}

	// (d) The fired alert captured a pprof profile, sitting next to the
	// postmortem bundle.
	profiles := agg.Profiles()
	if len(profiles) == 0 {
		t.Fatal("burn alert fired but no profile was captured")
	}
	for _, p := range profiles {
		if p.Err != "" {
			t.Fatalf("profile capture failed: %+v", p)
		}
		if p.Member != harnessAddr || p.Kind != "heap" {
			t.Errorf("unexpected capture %+v", p)
		}
		fi, err := os.Stat(p.Path)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("captured profile %s: %v", p.Path, err)
		}
		if filepath.Dir(p.Path) != filepath.Dir(bundlePath) {
			t.Errorf("profile %s not alongside postmortem %s", p.Path, bundlePath)
		}
	}

	// (e) The operator report, with fleet totals and the alert, lands as
	// FLEET_report.json (plus the human rendering) for CI to archive.
	report := agg.FleetReport()
	if report.Partial {
		t.Fatal("report partial with every member up")
	}
	if report.Totals["ibp_depot_bytes_out_total"] == 0 {
		t.Errorf("report fleet totals missing served bytes: %+v", report.Totals)
	}
	if len(report.Alerts) == 0 {
		t.Error("report carries no firing alerts")
	}
	if len(report.Profiles) == 0 {
		t.Error("report carries no captured profiles")
	}
	if _, ok := report.RingDropped["events"]; !ok {
		t.Errorf("report has no ring accounting: %+v", report.RingDropped)
	}
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(artDir, "FLEET_report.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(artDir, "FLEET_report.md"), []byte(obsfleet.RenderReportMarkdown(report)), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet report written to %s", filepath.Join(artDir, "FLEET_report.json"))

	// Phase C: deeper into the outage the monitor keeps burning bad
	// events against the dead depot; another sweep retains the history.
	clk.Advance(time.Hour)
	for i := 0; i < 30; i++ {
		engine.Record(slo.IBPOps, dead.info.Addr, false)
	}
	agg.Sweep()

	// Phase D: recovery. Past outageTo the depot (and its link) are back:
	// a fresh download succeeds and the monitor's probes against the
	// revived depot go good again, across two sweeps.
	clk.Advance(time.Hour)
	root2 := obs.NewRootSpan()
	got2, _, err := tl.Download(x, core.DownloadOptions{Strategy: core.StrategyStatic, Span: root2})
	if err != nil {
		t.Fatalf("post-recovery download: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("post-recovery download content mismatch")
	}
	for i := 0; i < 30; i++ {
		engine.Record(slo.IBPOps, dead.info.Addr, true)
	}
	agg.Sweep()
	clk.Advance(30 * time.Minute)
	for i := 0; i < 30; i++ {
		engine.Record(slo.IBPOps, dead.info.Addr, true)
	}
	recoveredAt := clk.Now()
	agg.Sweep()

	// (f) /fleet/query: the burn history, vclock-pinned. Zero bad rate
	// over the baseline hour, a nonzero rate on the dead depot's key over
	// exactly the scripted outage window, zero again after recovery.
	badRates := func(at time.Time, window time.Duration) map[string]float64 {
		t.Helper()
		expr := fmt.Sprintf(`rate(slo_sli_bad_total{member=%q})`, harnessAddr)
		var qr obsfleet.QueryResponse
		getInto(t, fmt.Sprintf("%s/fleet/query?expr=%s&at=%s&window=%s",
			ui.URL, neturl.QueryEscape(expr),
			neturl.QueryEscape(at.Format(time.RFC3339Nano)), window), &qr)
		out := map[string]float64{}
		for _, r := range qr.Results {
			for _, l := range r.Labels {
				if l.Name == "key" {
					out[l.Value] = r.Value
				}
			}
		}
		return out
	}
	before := badRates(outageFrom, time.Hour)
	if len(before) == 0 {
		t.Fatal("no bad-rate series retained over the baseline window")
	}
	for key, r := range before {
		if r != 0 {
			t.Errorf("baseline bad rate on %s = %v, want 0", key, r)
		}
	}
	during := badRates(outageTo, outageTo.Sub(outageFrom))
	if during[dead.info.Addr] <= 0 {
		t.Errorf("outage-window bad rate on the dead depot = %v, want > 0 (all rates: %v)",
			during[dead.info.Addr], during)
	}
	for key, r := range during {
		if key != dead.info.Addr && r != 0 {
			t.Errorf("outage-window bad rate on survivor %s = %v, want 0", key, r)
		}
	}
	for key, r := range badRates(recoveredAt, recoveredAt.Sub(outageTo)) {
		if r != 0 {
			t.Errorf("post-recovery bad rate on %s = %v, want 0", key, r)
		}
	}
	var inv tsdb.Inventory
	getInto(t, ui.URL+"/fleet/series", &inv)
	if inv.SeriesCount == 0 || len(inv.Series) != inv.SeriesCount {
		t.Fatalf("series inventory inconsistent: count %d over %d entries", inv.SeriesCount, len(inv.Series))
	}
	var haveBad, haveFleet bool
	for _, s := range inv.Series {
		haveBad = haveBad || s.Name == "slo_sli_bad_total"
		haveFleet = haveFleet || strings.HasPrefix(s.Name, "fleet_")
	}
	if !haveBad || !haveFleet {
		t.Errorf("inventory missing expected families (slo_sli_bad_total=%v fleet_*=%v)", haveBad, haveFleet)
	}

	// (g) /fleet/budget: fail while the outage burned, with the onset
	// step as the worst burn window; pass over the post-recovery window.
	findObj := func(rep obsfleet.BudgetReport) obsfleet.BudgetObjective {
		t.Helper()
		for _, o := range rep.Objectives {
			if o.Name == "ibp-op-errors" {
				return o
			}
		}
		t.Fatalf("objective ibp-op-errors missing from ledger: %+v", rep.Objectives)
		return obsfleet.BudgetObjective{}
	}
	var burning obsfleet.BudgetReport
	getInto(t, fmt.Sprintf("%s/fleet/budget?at=%s&window=90m", ui.URL,
		neturl.QueryEscape(midSweepAt.Format(time.RFC3339Nano))), &burning)
	if burning.Verdict != "fail" {
		t.Errorf("mid-outage fleet budget verdict = %q, want fail", burning.Verdict)
	}
	bObj := findObj(burning)
	if bObj.Verdict != "fail" || bObj.Consumed <= 1 {
		t.Errorf("mid-outage objective verdict = %q consumed %v, want fail with consumed > 1",
			bObj.Verdict, bObj.Consumed)
	}
	if bObj.Worst == nil || !bObj.Worst.From.Equal(onsetSweepAt) || !bObj.Worst.To.Equal(midSweepAt) {
		t.Errorf("worst burn window = %+v, want the outage onset step [%v, %v]",
			bObj.Worst, onsetSweepAt, midSweepAt)
	}
	var recovered obsfleet.BudgetReport
	getInto(t, fmt.Sprintf("%s/fleet/budget?at=%s&window=%s", ui.URL,
		neturl.QueryEscape(recoveredAt.Format(time.RFC3339Nano)), recoveredAt.Sub(outageTo)), &recovered)
	if recovered.Verdict != "pass" {
		t.Errorf("post-recovery fleet budget verdict = %q, want pass", recovered.Verdict)
	}
	if rObj := findObj(recovered); rObj.Verdict != "pass" || rObj.Good == 0 {
		t.Errorf("post-recovery objective verdict = %q (good %v), want pass on real traffic",
			rObj.Verdict, rObj.Good)
	}

	// (h) /fleet/attribution: the outage trace's tail belongs to the dead
	// depot — the client burned its dial timeout against it — inside the
	// IBP exchange layer.
	var attr obsfleet.AttributionReport
	getInto(t, ui.URL+"/fleet/attribution", &attr)
	if attr.Traces == 0 {
		t.Fatal("attribution retained no traces")
	}
	var ibpShare float64
	for _, l := range attr.Layers {
		if l.Layer == "ibp" {
			ibpShare = l.P99Share
		}
	}
	if ibpShare <= 0 {
		t.Fatalf("ibp layer missing from attribution: %+v", attr.Layers)
	}
	var deadP99 float64 = -1
	for _, d := range attr.Depots {
		if d.Depot == dead.info.Addr {
			deadP99 = d.P99Seconds
		}
	}
	if deadP99 < 0 {
		t.Fatalf("dead depot missing from attribution: %+v", attr.Depots)
	}
	if deadP99 < 1 {
		t.Errorf("dead depot p99 busy = %vs, want >= 1s (the burned dial timeout)", deadP99)
	}
	for _, d := range attr.Depots {
		if d.Depot != dead.info.Addr && d.P99Seconds >= deadP99 {
			t.Errorf("depot %s p99 busy %vs >= dead depot %vs: tail misattributed",
				d.Depot, d.P99Seconds, deadP99)
		}
	}

	// (i) The shutdown flush: the budget ledger written to disk parses
	// back with the verdicts the live endpoint serves, and the
	// attribution snapshot lands beside it for CI.
	budgetPath := filepath.Join(artDir, "FLEET_budget.json")
	if err := agg.WriteBudget(budgetPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(budgetPath)
	if err != nil {
		t.Fatal(err)
	}
	var flushed obsfleet.BudgetReport
	if err := json.Unmarshal(raw, &flushed); err != nil {
		t.Fatalf("FLEET_budget.json does not parse: %v", err)
	}
	var live obsfleet.BudgetReport
	getInto(t, ui.URL+"/fleet/budget", &live)
	if flushed.Verdict != live.Verdict || len(flushed.Objectives) != len(live.Objectives) {
		t.Errorf("flushed ledger disagrees with live endpoint: %q/%d vs %q/%d",
			flushed.Verdict, len(flushed.Objectives), live.Verdict, len(live.Objectives))
	}
	if flushed.Verdict != "fail" {
		t.Errorf("lifetime ledger verdict = %q, want fail (the outage torched the 0.9 objective)", flushed.Verdict)
	}
	attrJS, err := json.MarshalIndent(attr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(artDir, "FLEET_attribution.json"), append(attrJS, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("budget ledger and attribution snapshot written to %s", artDir)
}

func getInto(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func grepLines(text, substr string) string {
	var b strings.Builder
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
