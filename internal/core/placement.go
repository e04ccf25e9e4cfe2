package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/lbone"
)

// placementDepots returns the depots op may place new data on: the
// caller's explicit list when it gave one, else the L-Bone's depots that
// grant duration, nearest first to near (default: the client's own
// location). An L-Bone that cannot answer is a classified discovery error,
// never an empty list.
func (t *Tools) placementDepots(op string, explicit []lbone.DepotInfo, duration time.Duration, near *geo.Point) ([]lbone.DepotInfo, error) {
	depots := explicit
	if depots == nil {
		if t.LBone == nil {
			return nil, fmt.Errorf("core: %s needs explicit depots or an L-Bone", op)
		}
		if near == nil {
			near = &t.Loc
		}
		var err error
		depots, err = t.LBone.Query(lbone.Requirements{MinDuration: duration, Near: near})
		if err != nil {
			return nil, discoveryErr("depot discovery", err)
		}
	}
	if len(depots) == 0 {
		return nil, fmt.Errorf("core: no depots available for %s", op)
	}
	return depots, nil
}

// Placement selects the depot-assignment policy for uploads — a first
// concrete instance of the replication-strategy research the paper
// motivates ("the actual best replication strategy... is a matter of
// future research", §2.3).
type Placement int

// Placement policies.
const (
	// PlacementRotate round-robins fragments over the depot list,
	// rotating each replica's start (the default; reproduces the paper's
	// simple stripes).
	PlacementRotate Placement = iota
	// PlacementSiteDiverse additionally pushes copies of the same byte
	// range onto different *sites*, so a whole-site outage (a campus
	// network cut, the common failure in the paper's tests) cannot take
	// out every copy of any extent.
	PlacementSiteDiverse
)

// planJob is one fragment to place.
type planJob struct {
	replica int
	j       int
	ext     exnode.Extent
}

// planPlacements returns, per job, the ordered depot candidates to try.
// For PlacementRotate the order is the classic rotation. For
// PlacementSiteDiverse candidates are ordered by how few already-planned
// copies of the overlapping byte range their site holds, so the first
// choice maximizes site diversity; later candidates degrade gracefully
// and double as failover targets.
func planPlacements(jobs []planJob, depots []lbone.DepotInfo, policy Placement) [][]lbone.DepotInfo {
	out := make([][]lbone.DepotInfo, len(jobs))
	if policy == PlacementRotate || len(depots) == 0 {
		for i, jb := range jobs {
			order := make([]lbone.DepotInfo, len(depots))
			for a := range depots {
				order[a] = depots[(jb.j+jb.replica+a)%len(depots)]
			}
			out[i] = order
		}
		return out
	}

	// Site-diverse: greedy plan. planned[k] records the site chosen for
	// job k (first candidate), so later jobs can count per-site overlap.
	type placed struct {
		ext  exnode.Extent
		site string
	}
	var plan []placed
	overlapCount := func(site string, ext exnode.Extent) int {
		n := 0
		for _, p := range plan {
			if p.site == site && p.ext.Start < ext.End && ext.Start < p.ext.End {
				n++
			}
		}
		return n
	}
	for i, jb := range jobs {
		order := append([]lbone.DepotInfo(nil), depots...)
		// Rotate first for tie-breaking fairness, then stable-sort by
		// overlap so least-loaded sites come first.
		rot := (jb.j + jb.replica) % len(order)
		order = append(order[rot:], order[:rot]...)
		sort.SliceStable(order, func(a, b int) bool {
			return overlapCount(order[a].Site, jb.ext) < overlapCount(order[b].Site, jb.ext)
		})
		out[i] = order
		plan = append(plan, placed{ext: jb.ext, site: order[0].Site})
	}
	return out
}
