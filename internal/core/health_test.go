package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/transfer"
)

// healthTools builds a Tools client at the given site with a shared health
// scoreboard wired into both layers, mirroring what cmd/xnd does.
func (e *env) healthTools(site geo.Site, sb *health.Scoreboard) *Tools {
	e.t.Helper()
	client := ibp.NewClient(
		ibp.WithDialer(e.Model.DialerFrom(site.Name)),
		ibp.WithClock(e.Clock),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithOpTimeout(60*time.Second),
		ibp.WithHealth(sb),
	)
	return &Tools{
		IBP:    client,
		LBone:  RegistrySource{Reg: e.Registry},
		Clock:  e.Clock,
		Site:   site.Name,
		Loc:    site.Loc,
		Health: sb,
	}
}

// TestDownloadBreakerSkipsDeadDepot is the issue's acceptance scenario: a
// depot's link dies mid-download; the first extents pay the dial timeout
// and trip its circuit, after which every remaining extent is served from
// the surviving replica without re-paying the timeout.
func TestDownloadBreakerSkipsDeadDepot(t *testing.T) {
	e := newEnv(t)
	e.addDepot("near", geo.UNC, nil) // statically ranked first from HARVARD
	e.addDepot("far", geo.UCSD, nil)
	sb := health.New(health.Config{
		FailureThreshold: 2,
		BaseBackoff:      10 * time.Minute,
		Clock:            e.Clock,
		Seed:             1,
	})
	tl := e.healthTools(geo.Harvard, sb)

	// Two full replicas striped into four fragments each: rotation places
	// one copy of every extent on each depot.
	data := payload(1 << 20)
	x, err := tl.Upload("breaker.dat", data, UploadOptions{
		Replicas:  2,
		Fragments: 4,
		Depots:    e.infosFor("near", "far"),
		Checksum:  true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The link to the near depot goes down before the download and stays
	// down: every dial to it now hangs for the full 2s dial timeout.
	e.Model.SetLink(geo.Harvard.Name, geo.UNC.Name, faultnet.Link{
		RTT: 40 * time.Millisecond, Mbps: 20,
		Avail: faultnet.Windows{Down: []faultnet.Window{
			{From: e.Clock.Now(), To: e.Clock.Now().Add(time.Hour)},
		}},
	})

	got, rep, err := tl.Download(x, DownloadOptions{Strategy: StrategyStatic})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("download corrupted")
	}

	nearAddr := e.Depots["near"].Addr()
	if st, _ := sb.State(nearAddr); st != health.StateOpen {
		t.Fatalf("near depot breaker state = %v, want open", st)
	}
	// Only the first two extents pay the dial timeout (FailureThreshold 2
	// opens the circuit); the remaining extents rank the dead depot last
	// and fetch straight from the survivor.
	if rep.Failovers != 2 {
		t.Fatalf("failovers = %d, want exactly 2 (then the breaker opens)", rep.Failovers)
	}
	for i, er := range rep.Extents[2:] {
		if er.Attempts != 1 {
			t.Fatalf("extent %d attempts = %d, want 1 (dead depot skipped)", i+2, er.Attempts)
		}
	}
	// Two timeouts at 2s each plus shaped transfer time: far below the 8s+
	// a breaker-less client would burn timing out on all four extents.
	if rep.Duration > 6*time.Second {
		t.Fatalf("download took %v of virtual time; breaker did not skip the dead depot", rep.Duration)
	}

	// The scoreboard renders the outage the way `xnd health` would show it.
	out := sb.Render()
	if !strings.Contains(out, "open") || !strings.Contains(out, "backing off") {
		t.Fatalf("render missing open/backing-off marker:\n%s", out)
	}
}

// TestUploadPlacementAvoidsOpenCircuit checks the write path: fragment
// placement reorders candidates so open-circuit depots are only used as a
// last resort.
func TestUploadPlacementAvoidsOpenCircuit(t *testing.T) {
	e := newEnv(t)
	e.addDepot("a", geo.UTK, nil)
	e.addDepot("b", geo.UCSD, nil)
	sb := health.New(health.Config{
		FailureThreshold: 1,
		BaseBackoff:      10 * time.Minute,
		Clock:            e.Clock,
		Seed:             1,
	})
	tl := e.healthTools(geo.UTK, sb)

	// Trip depot a's breaker directly: one reported timeout is enough at
	// threshold 1.
	aAddr := e.Depots["a"].Addr()
	sb.Report(aAddr, health.Timeout, 2*time.Second)
	if st, _ := sb.State(aAddr); st != health.StateOpen {
		t.Fatalf("state = %v, want open", st)
	}

	x, err := tl.Upload("place.dat", payload(64<<10), UploadOptions{
		Fragments: 4,
		Depots:    e.infosFor("a", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range x.Mappings {
		if m.Depot != "b" {
			t.Fatalf("fragment placed on open-circuit depot %s", m.Depot)
		}
	}
}

// Coded uploads and third-party augment place each block on exactly one
// depot, with no failover behind it — so they most of all must keep off a
// depot whose circuit is open while healthy ones can take the block.
func TestCodedAndThirdPartyPlacementAvoidOpenCircuit(t *testing.T) {
	e := newEnv(t)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for i, n := range names {
		e.addDepot(n, geo.KnownSites()[i], nil)
	}
	sb := health.New(health.Config{
		FailureThreshold: 1,
		BaseBackoff:      10 * time.Minute,
		Clock:            e.Clock,
		Seed:             1,
	})
	tl := e.healthTools(geo.UTK, sb)
	aAddr := e.Depots["a"].Addr()
	sb.Report(aAddr, health.Timeout, 2*time.Second)
	if st, _ := sb.State(aAddr); st != health.StateOpen {
		t.Fatalf("state = %v, want open", st)
	}

	data := payload(96 << 10)
	x, err := tl.UploadRS("coded.dat", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Depots: e.infosFor(names...),
	})
	if err != nil {
		t.Fatalf("RS 3+2 over six depots, one circuit open: %v", err)
	}
	used := map[string]bool{}
	for _, m := range x.Mappings {
		used[m.Depot] = true
	}
	if len(used) != 5 || used["a"] {
		t.Fatalf("blocks placed on %v, want one on each of the five healthy depots", used)
	}

	src, err := tl.Upload("plain.dat", data, UploadOptions{Fragments: 2, Depots: e.infosFor("b", "c")})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := tl.Augment(src, AugmentOptions{ThirdParty: true, Depots: e.infosFor("a", "d", "e")})
	if err != nil {
		t.Fatalf("third-party augment with the first target's circuit open: %v", err)
	}
	for _, m := range aug.ReplicaMappings(1) {
		if m.Depot == "a" {
			t.Fatalf("copy target %s has an open circuit", m.Depot)
		}
	}
}

// TestRankCandidatesOrder pins download ranking's three tiers — healthy,
// then measured-slow, then open-circuit — each kept in strategy order. The
// strategy here is static proximity: a is nearest, d farthest, and the
// exNode lists them backwards.
func TestRankCandidatesOrder(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	dir := map[string]geo.Point{}
	var cands []*exnode.Mapping
	for i := len(names) - 1; i >= 0; i-- {
		addr := names[i] + ":6714"
		dir[addr] = geo.Point{Lat: float64(i + 1)}
		cands = append(cands, &exnode.Mapping{Depot: names[i], Read: ibp.Cap{Addr: addr}})
	}
	// Samples against the engine's fixed 10ms base threshold.
	slow := []time.Duration{time.Second, time.Second, time.Second}
	cases := []struct {
		name     string
		samples  map[string][]time.Duration
		blocked  []string
		noEngine bool
		noHealth bool
		want     string
	}{
		{name: "unknown depots are not slow", want: "abcd"},
		{name: "fewer than 3 samples is not slow",
			samples: map[string][]time.Duration{"a": slow[:2]}, want: "abcd"},
		{name: "median under the threshold is not slow",
			samples: map[string][]time.Duration{"a": {time.Millisecond, time.Millisecond, time.Second}}, want: "abcd"},
		{name: "slow goes behind the healthy",
			samples: map[string][]time.Duration{"a": slow, "c": slow}, want: "bdac"},
		{name: "slow and blocked: blocked wins",
			samples: map[string][]time.Duration{"a": slow, "b": slow}, blocked: []string{"a"}, want: "cdba"},
		{name: "every candidate slow keeps strategy order",
			samples: map[string][]time.Duration{"a": slow, "b": slow, "c": slow, "d": slow}, want: "abcd"},
		{name: "no engine: only blocked is demoted",
			samples: map[string][]time.Duration{"a": slow}, blocked: []string{"b"}, noEngine: true, want: "acdb"},
		{name: "no scoreboard: strategy order",
			samples: map[string][]time.Duration{"a": slow}, blocked: []string{"b"}, noHealth: true, want: "abcd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sb := health.New(health.Config{FailureThreshold: 1, BaseBackoff: time.Hour, Seed: 1})
			for name, ds := range tc.samples {
				for _, d := range ds {
					sb.Report(name+":6714", health.Success, d)
				}
			}
			for _, name := range tc.blocked {
				sb.Report(name+":6714", health.Timeout, 0)
			}
			tl := &Tools{Health: sb, Transfer: transfer.New(transfer.Config{Hedge: true, HedgeAfter: 10 * time.Millisecond, Health: sb})}
			if tc.noEngine {
				tl.Transfer = nil
			}
			if tc.noHealth {
				tl.Health = nil
			}
			got := ""
			for _, m := range tl.rankCandidates(cands, DownloadOptions{Strategy: StrategyStatic}, dir, 0) {
				got += m.Depot
			}
			if got != tc.want {
				t.Fatalf("order %s, want %s", got, tc.want)
			}
		})
	}
}
