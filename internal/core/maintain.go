package core

import (
	"fmt"
	"time"

	"repro/internal/exnode"
	"repro/internal/lbone"
	"repro/internal/wire"
)

// Maintain is a first cut at the replication-strategy research the paper
// calls for ("the decision-making of how to replicate, stripe, and route
// files... is work that we will address in the future", §4): a single
// maintenance pass that keeps an exNode retrievable over time by
// refreshing expiring allocations, trimming dead mappings, and re-growing
// redundancy when coverage has decayed below a floor.

// MaintainOptions tune a maintenance pass.
type MaintainOptions struct {
	// MinCoverage is the minimum number of available copies every extent
	// should have; Maintain augments when any extent falls below it
	// (default 2 — the paper's Test 3 floor).
	MinCoverage int
	// RefreshBelow triggers a Refresh when any mapping expires within
	// this window (default 24h).
	RefreshBelow time.Duration
	// RefreshTo is the new lifetime granted by the refresh (default
	// DefaultDuration).
	RefreshTo time.Duration
	// Depots bypasses discovery for repair uploads.
	Depots []lbone.DepotInfo
}

// MaintainReport says what a pass did.
type MaintainReport struct {
	Refreshed     int // allocations whose lifetime was extended
	TrimmedDead   int // mappings dropped because their depot no longer has them
	AddedReplicas int // repair copies uploaded
	MinCoverage   int // worst-extent coverage after the pass
	Events        []MaintainEvent
}

func (r *MaintainReport) event(action, format string, args ...any) {
	r.Events = append(r.Events, MaintainEvent{Action: action, Detail: fmt.Sprintf(format, args...)})
}

// Maintain runs one maintenance pass and returns the (possibly new)
// exNode. The input exNode is not mutated except for refreshed expiration
// timestamps.
func (t *Tools) Maintain(x *exnode.ExNode, opts MaintainOptions) (*exnode.ExNode, *MaintainReport, error) {
	if opts.MinCoverage <= 0 {
		opts.MinCoverage = 2
	}
	if opts.RefreshBelow <= 0 {
		opts.RefreshBelow = 24 * time.Hour
	}
	if opts.RefreshTo <= 0 {
		opts.RefreshTo = DefaultDuration
	}
	rep := &MaintainReport{}

	// 1. Probe every mapping.
	entries := t.List(x)

	// 2. Refresh soon-expiring allocations (across the whole exnode: one
	//    partially-refreshed exnode beats an expired one).
	now := t.clock().Now()
	needsRefresh := false
	for _, e := range entries {
		if e.Available && !e.Expires.IsZero() && e.Expires.Before(now.Add(opts.RefreshBelow)) {
			needsRefresh = true
			break
		}
	}
	if needsRefresh {
		n, err := t.Refresh(x, opts.RefreshTo)
		if err != nil {
			t.logf("core: maintain: refresh: %v", err)
			rep.event("refresh", "extended %d allocations to %v (partial: %v)", n, opts.RefreshTo, err)
		} else {
			rep.event("refresh", "extended %d allocations to %v", n, opts.RefreshTo)
		}
		rep.Refreshed = n
	}

	// 3. Drop mappings whose allocations are gone for good (expired or
	//    deleted). A depot merely being down is NOT grounds for trimming —
	//    the paper's depots came back. Only trim when the depot answered
	//    and said "no such allocation". Step 1's probes are the only ones
	//    a pass makes: up[i] says whether out.Mappings[i] answered.
	out := x.Clone()
	var deadIdx []int
	var up []bool
	for i, e := range entries {
		if isGoneError(e.probeErr) {
			deadIdx = append(deadIdx, i)
			m := x.Mappings[i]
			rep.event("trim", "mapping [%d,%d) on %s (%s): allocation gone",
				m.Offset, m.Offset+m.Length, m.Depot, m.Manage.Addr)
		} else {
			up = append(up, e.probeErr == nil)
		}
	}
	if len(deadIdx) > 0 {
		trimmed, err := t.Trim(out, TrimOptions{Indices: deadIdx})
		if err != nil {
			return nil, rep, fmt.Errorf("core: maintain: trim: %w", err)
		}
		out = trimmed
		rep.TrimmedDead = len(deadIdx)
	}

	// 4. Measure worst-extent coverage counting only available mappings,
	//    and repair if below the floor.
	coverage := worstCoverage(out, upSet(out, up))
	if coverage < opts.MinCoverage {
		add := opts.MinCoverage - coverage
		rep.event("repair", "coverage %d below floor %d: adding %d replica(s)", coverage, opts.MinCoverage, add)
		aug, err := t.augment(out, AugmentOptions{
			Replicas: add,
			Depots:   opts.Depots,
			Duration: opts.RefreshTo,
			Checksum: true,
		}, upSet(out, up))
		if err != nil {
			return out, rep, fmt.Errorf("core: maintain: repair: %w", err)
		}
		// augment appends the mappings it just stored: they are up.
		for len(up) < len(aug.Mappings) {
			up = append(up, true)
		}
		out = aug
		rep.AddedReplicas = add
	}
	rep.MinCoverage = worstCoverage(out, upSet(out, up))
	return out, rep, nil
}

// upSet is the set of x's mappings whose up flag is set.
func upSet(x *exnode.ExNode, up []bool) occupancy {
	avail := occupancy{}
	for i, m := range x.Mappings {
		if up[i] {
			avail[m] = true
		}
	}
	return avail
}

// worstCoverage returns the minimum, over extents of the file, of the
// effective redundancy covering the extent: the number of replica mappings
// in avail (Tools.reachable), plus what the coding groups contribute. A
// k+m group with a >= k blocks reachable can lose a-k more blocks and
// still rebuild, so it counts as a-k+1 independent copies of the extent
// it protects; an unrecoverable group (a < k) counts nothing. Counting
// only replicas here made every coded-only file report coverage 0, so
// Maintain stacked fresh replicas onto perfectly healthy coding groups
// on every single pass.
func worstCoverage(x *exnode.ExNode, avail occupancy) int {
	type groupCover struct {
		ext exnode.Extent
		eff int // effective copies the group contributes to its extent
	}
	var groups []groupCover
	for _, ms := range x.CodingGroups() {
		k := ms[0].DataBlocks
		blocks := map[int]bool{}
		for _, m := range ms {
			if avail[m] {
				blocks[m.BlockIndex] = true
			}
		}
		if a := len(blocks); a >= k {
			groups = append(groups, groupCover{
				ext: exnode.Extent{Start: ms[0].Offset, End: ms[0].End()},
				eff: a - k + 1,
			})
		}
	}
	min := -1
	for _, ext := range x.Boundaries(0, x.Size) {
		n := 0
		for _, m := range x.Candidates(ext) {
			if avail[m] {
				n++
			}
		}
		for _, g := range groups {
			if g.ext.Start <= ext.Start && ext.End <= g.ext.End {
				n += g.eff
			}
		}
		if min == -1 || n < min {
			min = n
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// reachable probes x's mappings and returns the set whose allocations
// answered. A read-only share (no manage capability) has nothing to probe
// and an open circuit is not worth the probe: both count as unreachable.
func (t *Tools) reachable(x *exnode.ExNode) occupancy {
	avail := occupancy{}
	for _, m := range x.Mappings {
		if _, err := t.probe(m); err == nil {
			avail[m] = true
		}
	}
	return avail
}

// isGoneError reports whether an IBP error means the allocation is
// permanently gone.
func isGoneError(err error) bool { return wire.IsGone(err) }
