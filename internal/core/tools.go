// Package core implements the Logistical Tools — the top implemented layer
// of the Network Storage Stack (paper §2.3) and this reproduction's primary
// contribution surface.
//
// The tools aggregate IBP storage through exNodes: Upload stripes and
// replicates local data across depots discovered through the L-Bone;
// Download reassembles a file (or range) by splitting it into extents at
// segment boundaries and fetching each extent from the best available
// depot, failing over on timeout or error, guided by NWS bandwidth
// forecasts when available; List, Refresh, Augment, Trim and Route manage
// the exNode over time. Beyond the paper's shipped tools, the package
// implements its stated future work: XOR-parity and Reed-Solomon coded
// storage, end-to-end checksums, and threaded (parallel) downloads.
package core

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/obs"
	"repro/internal/transfer"
	"repro/internal/vclock"
)

// DepotSource abstracts the L-Bone: anything that can answer depot
// queries. *registry.QuorumClient satisfies it over the network, for a
// lone lbone-server and a replica group alike; *lbone.Registry can be
// adapted in-process via RegistrySource.
type DepotSource interface {
	Query(req lbone.Requirements) ([]lbone.DepotInfo, error)
}

// NWSSource is the slice of the Network Weather Service the tools consume:
// forecasts to rank download candidates, and measurement feedback from the
// downloads themselves. Both *nws.Service (local) and *nws.Client (remote
// daemon) satisfy it.
type NWSSource interface {
	Forecast(src, dst string, res nws.Resource) (float64, bool)
	Record(src, dst string, res nws.Resource, value float64)
}

// RegistrySource adapts an in-process registry to DepotSource.
type RegistrySource struct{ Reg *lbone.Registry }

// Query implements DepotSource.
func (r RegistrySource) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	return r.Reg.Query(req), nil
}

// Tools is the Logistical Tools client. Configure once per vantage point.
type Tools struct {
	// IBP is the depot client (required).
	IBP *ibp.Client
	// LBone answers depot discovery queries (required for Upload/Augment
	// without explicit depot lists).
	LBone DepotSource
	// NWS supplies bandwidth forecasts; nil disables the NWS strategy
	// (downloads then use static proximity, as the paper describes for
	// hosts without a local NWS). Use a local *nws.Service or a remote
	// *nws.Client.
	NWS NWSSource
	// Clock measures download durations and expirations (default real).
	Clock vclock.Clock
	// Site names this client's location for NWS series ("UTK", …).
	Site string
	// Loc is the client's coordinates for static proximity ranking.
	Loc geo.Point
	// Logger, when set, receives per-attempt diagnostics as structured
	// records (obs.NewLogger wires them into the flight recorder too).
	Logger *slog.Logger
	// Forecast, when set, records the NWS forecast error after each
	// measured download: the bandwidth the forecast predicted for the
	// depot pair versus what the transfer actually achieved.
	Forecast *obs.ForecastTracker
	// Health is the depot scoreboard shared with the IBP client. When set
	// (to the same scoreboard passed via ibp.WithHealth), download ranking
	// demotes open-circuit depots below every healthy candidate, upload
	// placement and maintenance prefer healthy depots, and Refresh skips
	// depots that would only fail fast. Nil disables health-aware
	// behaviour.
	Health *health.Scoreboard
	// Transfer is the adaptive transfer engine. When set, extent fetches
	// run through its per-depot concurrency limiter, may hedge a slow
	// attempt against the next-ranked replica, and concurrent decodes of
	// the same coding group collapse into one; with Health set too,
	// download ranking puts depots the engine measures as Slow after the
	// healthy ones. Nil reproduces the plain sequential failover path.
	Transfer *transfer.Engine
	// Directory is the replicated exNode directory (internal/registry).
	// When set, StoreExNode/LoadExNode/DownloadByName resolve exNodes by
	// name through the quorum instead of loose client-side XML files.
	Directory ExNodeDirectory
}

func (t *Tools) clock() vclock.Clock {
	if t.Clock == nil {
		return vclock.Real()
	}
	return t.Clock
}

func (t *Tools) logf(format string, args ...any) {
	if t.Logger != nil {
		t.Logger.Info(fmt.Sprintf(format, args...))
	}
}

// release deletes the blocks a failed write already stored (ms may hold
// nils for those it did not), so depots are not left holding bytes nothing
// references until the leases run out (a repair daemon retrying a flaky
// operation would leak capacity for days at a time). Best effort: a depot
// that cannot be reached reaps the orphan at expiry. It returns how many
// were deleted.
func (t *Tools) release(op string, ms []*exnode.Mapping) int {
	n := 0
	for _, m := range ms {
		if m == nil {
			continue
		}
		if _, err := t.IBP.Delete(m.Manage); err != nil {
			t.logf("core: %s: releasing %s: %v", op, m.Manage.Addr, err)
		} else {
			n++
		}
	}
	return n
}

// healthBlocked reports whether requests to addr would currently fail fast
// at the IBP layer because the depot's circuit is open. Without a
// scoreboard nothing is ever blocked.
func (t *Tools) healthBlocked(addr string) bool {
	return t.Health != nil && t.Health.Blocked(addr)
}

// preferHealthy stably reorders depot candidates so open-circuit depots
// come last: placement still falls back to them if every healthy depot
// refuses, but never burns a dial timeout on a known-dead depot first.
func (t *Tools) preferHealthy(depots []lbone.DepotInfo) []lbone.DepotInfo {
	if t.Health == nil {
		return depots
	}
	healthy := make([]lbone.DepotInfo, 0, len(depots))
	var blocked []lbone.DepotInfo
	for _, d := range depots {
		if t.healthBlocked(d.Addr) {
			blocked = append(blocked, d)
		} else {
			healthy = append(healthy, d)
		}
	}
	return append(healthy, blocked...)
}

// forEach calls fn(0) … fn(n-1): in order on the caller's goroutine when
// workers <= 1, otherwise spread over that many goroutines, returning once
// every call has.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// DefaultDuration is the allocation lifetime used when options leave it
// zero (the paper's tests allocated for days and refreshed).
const DefaultDuration = 10 * 24 * time.Hour
