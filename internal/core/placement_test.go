package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/lbone"
)

func TestPlanPlacementsRotate(t *testing.T) {
	depots := []lbone.DepotInfo{
		{Name: "A", Site: "S1"}, {Name: "B", Site: "S1"}, {Name: "C", Site: "S2"},
	}
	jobs := []planJob{
		{replica: 0, j: 0, ext: exnode.Extent{Start: 0, End: 10}},
		{replica: 1, j: 0, ext: exnode.Extent{Start: 0, End: 10}},
	}
	plans := planPlacements(jobs, depots, PlacementRotate)
	if plans[0][0].Name != "A" || plans[1][0].Name != "B" {
		t.Fatalf("rotate plan: %v %v", plans[0][0].Name, plans[1][0].Name)
	}
	// Every plan lists every depot exactly once (failover coverage).
	for _, plan := range plans {
		seen := map[string]bool{}
		for _, d := range plan {
			seen[d.Name] = true
		}
		if len(seen) != len(depots) {
			t.Fatalf("plan misses depots: %v", plan)
		}
	}
}

func TestPlanPlacementsSiteDiverse(t *testing.T) {
	// Four depots at two sites; two copies of the same extent must land
	// at different sites.
	depots := []lbone.DepotInfo{
		{Name: "A1", Site: "S1"}, {Name: "A2", Site: "S1"},
		{Name: "B1", Site: "S2"}, {Name: "B2", Site: "S2"},
	}
	jobs := []planJob{
		{replica: 0, j: 0, ext: exnode.Extent{Start: 0, End: 100}},
		{replica: 1, j: 0, ext: exnode.Extent{Start: 0, End: 100}},
		{replica: 2, j: 0, ext: exnode.Extent{Start: 0, End: 100}},
	}
	plans := planPlacements(jobs, depots, PlacementSiteDiverse)
	s0 := plans[0][0].Site
	s1 := plans[1][0].Site
	if s0 == s1 {
		t.Fatalf("first two copies on the same site %q", s0)
	}
	// The third copy goes to the least-loaded site (both have one copy;
	// any choice is fine) — but non-overlapping extents are independent.
	jobs2 := []planJob{
		{replica: 0, j: 0, ext: exnode.Extent{Start: 0, End: 50}},
		{replica: 0, j: 1, ext: exnode.Extent{Start: 50, End: 100}},
	}
	plans2 := planPlacements(jobs2, depots, PlacementSiteDiverse)
	// No constraint violated either way; just sanity-check full coverage.
	if len(plans2[0]) != 4 || len(plans2[1]) != 4 {
		t.Fatal("plans must list all depots for failover")
	}
}

func TestSiteDiverseUploadSurvivesSiteOutage(t *testing.T) {
	// Two sites, two depots each. With site-diverse placement, killing an
	// entire site leaves every extent retrievable. With plain rotation on
	// an adversarial depot order (both same-site depots adjacent), copies
	// of an extent can land on one site.
	e := newEnv(t)
	e.addDepot("A1", geo.UTK, nil)
	e.addDepot("A2", geo.UTK, nil)
	e.addDepot("B1", geo.UCSD, nil)
	e.addDepot("B2", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	data := payload(60 << 10)
	// Adversarial depot order: A1, A2, B1, B2 — rotation puts copy 0
	// frag 0 on A1 and copy 1 frag 0 on A2: same site!
	x, err := tl.Upload("f", data, UploadOptions{
		Replicas:  2,
		Fragments: 2,
		Depots:    e.infosFor("A1", "A2", "B1", "B2"),
		Placement: PlacementSiteDiverse,
		Checksum:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify site diversity: for every extent, candidates span >1 site.
	siteOf := map[string]string{"A1": "UTK", "A2": "UTK", "B1": "UCSD", "B2": "UCSD"}
	for _, ext := range x.Boundaries(0, x.Size) {
		sites := map[string]bool{}
		for _, m := range x.Candidates(ext) {
			sites[siteOf[m.Depot]] = true
		}
		if len(sites) < 2 {
			t.Fatalf("extent [%d,%d) is single-site", ext.Start, ext.End)
		}
	}
	// Kill all of UTK; downloads still succeed from UCSD.
	for _, n := range []string{"A1", "A2"} {
		e.Kill(n, time.Hour)
	}
	got, _, err := tl.Download(x, DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("site-outage download mismatch")
	}
}
