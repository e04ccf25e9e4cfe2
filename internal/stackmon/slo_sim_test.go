package stackmon

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/slo"
	"repro/internal/testbed"
)

// TestSimSLOAlertsAlignWithOutages is the SLO acceptance check: a
// simulated study with one scripted outage must produce a burn-rate alert
// that fires shortly after the outage begins and resolves once the bad
// sweeps age out of the rule's long window — all on the virtual clock, so
// the firing interval is exactly reproducible against the schedule.
func TestSimSLOAlertsAlignWithOutages(t *testing.T) {
	outage := SimOutage{Depot: "DOWN", From: 6 * time.Hour, To: 9 * time.Hour}
	cfg := SimConfig{
		Depots:   []string{"UP", "DOWN"},
		Outages:  []SimOutage{outage},
		Duration: 14 * time.Hour,
		Interval: 5 * time.Minute,
		Seed:     7,
		Objectives: []slo.Objective{{
			Name: "depot-availability", SLI: slo.DepotAvailability,
			Target: 0.95, Window: 24 * time.Hour,
			Rules: []slo.BurnRule{{
				Name: "fast-burn", Long: time.Hour, Short: 15 * time.Minute,
				Burn: 14.4, Severity: "page",
			}},
		}},
	}
	_, addrOf, engine, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if engine == nil {
		t.Fatal("no engine returned despite Objectives")
	}

	firings := engine.Firings()
	if len(firings) != 1 {
		t.Fatalf("got %d firings %+v, want exactly one (the scripted outage)", len(firings), firings)
	}
	f := firings[0]
	if f.Key != addrOf["DOWN"] {
		t.Errorf("alert key = %s, want the downed depot %s", f.Key, addrOf["DOWN"])
	}
	if f.Objective != "depot-availability" || f.Rule != "fast-burn" || f.Severity != "page" {
		t.Errorf("firing identity = %+v", f)
	}

	// Fire time: the long window is 1h, so the burn crosses 14.4x once
	// ~72% of the trailing hour's sweeps have failed — between the outage
	// start and one hour in.
	firedOff := f.FiredAt.Sub(testbed.Start)
	if firedOff < outage.From || firedOff > outage.From+time.Hour {
		t.Errorf("alert fired at +%v, want within the first hour of the outage [+%v, +%v]",
			firedOff, outage.From, outage.From+time.Hour)
	}
	// Resolve time: after the outage ends, once enough healthy sweeps
	// dilute the trailing hour below the burn threshold.
	resolvedOff := f.ResolvedAt.Sub(testbed.Start)
	if f.ResolvedAt.IsZero() {
		t.Fatal("alert never resolved after the outage ended")
	}
	if resolvedOff < outage.To || resolvedOff > outage.To+time.Hour {
		t.Errorf("alert resolved at +%v, want within an hour after the outage end [+%v, +%v]",
			resolvedOff, outage.To, outage.To+time.Hour)
	}
	if f.PeakBurn < 14.4 {
		t.Errorf("peak burn = %.1f, want >= the 14.4 threshold", f.PeakBurn)
	}

	// The healthy depot must never alert.
	for _, f := range firings {
		if f.Key == addrOf["UP"] {
			t.Errorf("healthy depot fired an alert: %+v", f)
		}
	}

	// Determinism: a rerun must reproduce the same firing interval at sweep
	// granularity. (Link jitter comes from the model's one seeded RNG, drawn
	// once per dial. A sweep visits depots one at a time in name order, so
	// each depot draws the same jitter values and holds the same place in
	// the sweep every run, though its listener gets a fresh ephemeral port.
	// The check is at sweep granularity: a firing must never move across a
	// sweep boundary.)
	_, _, engine2, err := RunSim(cfg)
	if err != nil {
		t.Fatalf("RunSim (rerun): %v", err)
	}
	firings2 := engine2.Firings()
	if len(firings2) != 1 {
		t.Fatalf("rerun firings = %+v, want one", firings2)
	}
	f2 := firings2[0]
	if !f2.FiredAt.Truncate(cfg.Interval).Equal(f.FiredAt.Truncate(cfg.Interval)) ||
		!f2.ResolvedAt.Truncate(cfg.Interval).Equal(f.ResolvedAt.Truncate(cfg.Interval)) {
		t.Errorf("rerun interval [%v, %v] not aligned with [%v, %v]",
			f2.FiredAt, f2.ResolvedAt, f.FiredAt, f.ResolvedAt)
	}

	// make slo-smoke's study under the default objectives: exactly two
	// firings, both on D02, each pinned by the sweep slot (offset from the
	// study start, truncated to the interval) it fired and resolved in.
	t.Run("slo-smoke", func(t *testing.T) {
		smoke := SimConfig{
			Depots:     []string{"D01", "D02", "D03", "D04"},
			Outages:    []SimOutage{{Depot: "D02", From: 6 * time.Hour, To: 9 * time.Hour}},
			Duration:   14 * time.Hour,
			Interval:   5 * time.Minute,
			Payload:    16 << 10,
			Seed:       1,
			Objectives: slo.DefaultObjectives(),
		}
		st, addrOf, engine, err := RunSim(smoke)
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		slot := func(at time.Time) time.Duration { return at.Sub(st.Started).Truncate(smoke.Interval) }
		want := []struct {
			rule            string
			fired, resolved time.Duration
		}{
			{"fast-burn", 6*time.Hour + 40*time.Minute, 9*time.Hour + 15*time.Minute},
			{"slow-burn", 7*time.Hour + 45*time.Minute, 13*time.Hour + 10*time.Minute},
		}
		firings := engine.Firings()
		if len(firings) != len(want) {
			t.Fatalf("got %d firings %+v, want %d", len(firings), firings, len(want))
		}
		for i, w := range want {
			f := firings[i]
			if f.Key != addrOf["D02"] || f.Rule != w.rule {
				t.Errorf("firing %d: %s on %s, want %s on D02 (%s)", i, f.Rule, f.Key, w.rule, addrOf["D02"])
			}
			if f.ResolvedAt.IsZero() || slot(f.FiredAt) != w.fired || slot(f.ResolvedAt) != w.resolved {
				t.Errorf("%s: fired +%v, resolved +%v (zero=%v); want +%v and +%v",
					w.rule, slot(f.FiredAt), slot(f.ResolvedAt), f.ResolvedAt.IsZero(), w.fired, w.resolved)
			}
		}
	})
}

// TestSimIsReproducible runs make slo-smoke's study twice in-process, each
// from a fresh fleet on fresh loopback ports, and requires byte-equal
// output under depot names: the study JSON (sample times and Mbit/s
// included) and the SLO engine's firings. A sweep probes depots in name
// order, so each depot draws the same link jitter every run.
func TestSimIsReproducible(t *testing.T) {
	cfg := SimConfig{
		Depots:     SimDepots(4),
		Outages:    []SimOutage{{Depot: "D02", From: 6 * time.Hour, To: 9 * time.Hour}},
		Duration:   14 * time.Hour,
		Interval:   5 * time.Minute,
		Payload:    16 << 10,
		Seed:       1,
		Objectives: slo.DefaultObjectives(),
	}
	run := func() (study, firings []byte) {
		st, addrOf, engine, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("RunSim: %v", err)
		}
		nameOf := map[string]string{}
		var pairs []string
		for name, addr := range addrOf {
			nameOf[addr] = name
			pairs = append(pairs, addr, name)
		}
		named := strings.NewReplacer(pairs...)
		sort.Slice(st.Depots, func(i, j int) bool { return nameOf[st.Depots[i].Addr] < nameOf[st.Depots[j].Addr] })
		s, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		f, err := json.Marshal(engine.Firings())
		if err != nil {
			t.Fatal(err)
		}
		return []byte(named.Replace(string(s))), []byte(named.Replace(string(f)))
	}
	study1, firings1 := run()
	study2, firings2 := run()
	if !bytes.Equal(study1, study2) {
		i := 0
		for i < min(len(study1), len(study2)) && study1[i] == study2[i] {
			i++
		}
		t.Errorf("study JSON differs between runs at byte %d of %d:\n%.200s\n%.200s",
			i, len(study1), study1[max(i-100, 0):], study2[max(i-100, 0):])
	}
	if !bytes.Equal(firings1, firings2) {
		t.Errorf("firings differ between runs:\n%s\n%s", firings1, firings2)
	}
}
