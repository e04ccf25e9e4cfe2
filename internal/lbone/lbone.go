// Package lbone implements the Logistical Backbone — the resource
// discovery layer of the Network Storage Stack (paper §2.2).
//
// IBP depots register themselves with the L-Bone; clients query it for
// depots satisfying capacity and duration requirements, ordered by
// proximity to a location (a site, city, or coordinate). The L-Bone only
// answers "which depots exist and where"; live performance data comes from
// the NWS layer.
package lbone

import (
	"cmp"
	"errors"
	"slices"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/vclock"
)

// DepotInfo is one registry entry.
type DepotInfo struct {
	Addr        string        // host:port of the depot
	Name        string        // human-readable name, e.g. "UTK1"
	Site        string        // site name, e.g. "UTK" (resolves via geo.LookupSite)
	Loc         geo.Point     // coordinates for proximity resolution
	Capacity    int64         // total bytes the depot serves
	MaxDuration time.Duration // longest allocation the depot grants
	LastSeen    time.Time     // last registration or heartbeat
}

// Location implements geo.Ref so proximity sorting works on entries.
func (d DepotInfo) Location() geo.Point { return d.Loc }

// Requirements filter and order a depot query (paper §2.2: "minimum
// storage capacity and duration requirements, and basic proximity
// requirements").
type Requirements struct {
	MinCapacity int64         // minimum total capacity in bytes (0 = any)
	MinDuration time.Duration // minimum allocation duration (0 = any)
	Near        *geo.Point    // order results by distance from here
	Max         int           // cap on result count (0 = all)
}

// ErrNoRegistry reports that no configured L-Bone replica answered. It is
// deliberately an error, not an empty depot list: a client that cannot
// reach its registry has a *detected* failure (freestore taxonomy, DESIGN
// §9) and must say so, never silently plan uploads onto zero depots.
var ErrNoRegistry = errors.New("lbone: no registry replica reachable")

// SplitAddrs parses a comma-separated replica list, dropping empty
// entries.
func SplitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Registry is the in-memory depot table shared by the server and by
// in-process uses (the experiment harness embeds one directly).
//
// Every liveness decision — stamping LastSeen on registration and
// heartbeat, expiring entries out of query results — goes through the one
// injected clock. No path may consult time.Now directly: a registry run
// under a virtual clock (experiments, faultnet scenarios) must expire
// depots on virtual time only, never because wall time passed.
type Registry struct {
	ttl      time.Duration
	clock    vclock.Clock
	entries  map[string]DepotInfo
	controls map[string]ControlInfo
}

// NewRegistry creates a registry. Depots that have not re-registered or
// heartbeated within ttl are dropped from query results; ttl <= 0 disables
// liveness expiry. now supplies the registry's clock; nil uses
// vclock.Real().
func NewRegistry(ttl time.Duration, now func() time.Time) *Registry {
	var clock vclock.Clock
	if now != nil {
		clock = funcClock(now)
	}
	return NewRegistryClock(ttl, clock)
}

// NewRegistryClock is NewRegistry with a full vclock.Clock, so callers that
// already hold one (the server, the replicated registry) share it without
// the func adapter.
func NewRegistryClock(ttl time.Duration, clock vclock.Clock) *Registry {
	if clock == nil {
		clock = vclock.Real()
	}
	return &Registry{
		ttl:      ttl,
		clock:    clock,
		entries:  make(map[string]DepotInfo),
		controls: make(map[string]ControlInfo),
	}
}

// funcClock adapts a bare now-function to the Clock slice the registry
// consumes (Now only; the registry never sleeps).
type funcClock func() time.Time

func (f funcClock) Now() time.Time                         { return f() }
func (f funcClock) Since(t time.Time) time.Duration        { return f().Sub(t) }
func (f funcClock) Sleep(d time.Duration)                  { vclock.Real().Sleep(d) }
func (f funcClock) After(d time.Duration) <-chan time.Time { return vclock.Real().After(d) }

// Clock exposes the registry's clock so components layered on the same
// table (pollers, replicas) share one time source instead of defaulting to
// wall clock beside a virtual registry.
func (r *Registry) Clock() vclock.Clock { return r.clock }

// Register inserts or refreshes a depot entry.
func (r *Registry) Register(d DepotInfo) {
	d.LastSeen = r.clock.Now()
	r.entries[d.Addr] = d
}

// Restore inserts an entry preserving its LastSeen stamp — the merge
// primitive for replicated registries, where the authoritative liveness
// stamp came from a peer replica, not from this process observing the
// depot. A zero LastSeen is stamped now, as Register would.
func (r *Registry) Restore(d DepotInfo) {
	if d.LastSeen.IsZero() {
		d.LastSeen = r.clock.Now()
	}
	if cur, ok := r.entries[d.Addr]; ok && cur.LastSeen.After(d.LastSeen) {
		return // never roll liveness backwards
	}
	r.entries[d.Addr] = d
}

// Heartbeat refreshes liveness for addr; it reports whether the depot was
// registered.
func (r *Registry) Heartbeat(addr string) bool {
	d, ok := r.entries[addr]
	if !ok {
		return false
	}
	d.LastSeen = r.clock.Now()
	r.entries[addr] = d
	return true
}

// Deregister removes addr.
func (r *Registry) Deregister(addr string) { delete(r.entries, addr) }

// alive reports whether the entry is within its liveness window.
func (r *Registry) alive(d DepotInfo) bool {
	return r.ttl <= 0 || r.clock.Now().Sub(d.LastSeen) <= r.ttl
}

// Query returns live depots matching req, ordered by name (address
// breaks a tie) and then, when req.Near is set, stably by proximity:
// equidistant depots (one site's) come back in name order, never in map
// order.
func (r *Registry) Query(req Requirements) []DepotInfo {
	var out []DepotInfo
	for _, d := range r.entries {
		if !r.alive(d) {
			continue
		}
		if req.MinCapacity > 0 && d.Capacity < req.MinCapacity {
			continue
		}
		if req.MinDuration > 0 && d.MaxDuration < req.MinDuration {
			continue
		}
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b DepotInfo) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(a.Addr, b.Addr))
	})
	if req.Near != nil {
		geo.SortByDistance(*req.Near, out)
	}
	if req.Max > 0 && len(out) > req.Max {
		out = out[:req.Max]
	}
	return out
}

// Len reports the number of registered depots (live or not).
func (r *Registry) Len() int { return len(r.entries) }

// LiveLen reports the number of depots inside their liveness window.
func (r *Registry) LiveLen() int {
	n := 0
	for _, d := range r.entries {
		if r.alive(d) {
			n++
		}
	}
	return n
}
