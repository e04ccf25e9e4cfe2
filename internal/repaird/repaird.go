// Package repaird is the autonomous maintenance fleet: the service form
// of `xnd maintain`. The paper defers "the decision-making of how to
// replicate, stripe, and route files" to future work (§4); at fleet
// scale that decision-making cannot be a human running a tool per file,
// so this daemon walks the replicated exNode directory in shards, scores
// every file's loss risk from the signals the stack already collects
// (health scoreboard circuits, stackmon availability series, NWS
// bandwidth forecasts, allocation expirations), and feeds a priority
// queue of Maintain passes executed by a rate-limited worker pool.
//
// Sharding: a fleet of daemons partitions the namespace with the same
// consistent hash the directory itself shards by (registry.ShardFor), so
// daemon i of n owns exactly the names with ShardFor(name, n) == i —
// no coordination, no overlap, and adding a daemon re-partitions the
// walk without touching the directory.
//
// Rate limiting: repair must never starve user traffic. Reads inside a
// Maintain pass already go through the Tools' transfer engine (per-depot
// weighted slots, hedging); on top of that, the daemon runs each pass
// under a second per-depot transfer limiter of its own, acquiring a slot
// for every depot the file touches (in sorted order, so concurrent
// workers cannot deadlock) before the pass runs. A depot therefore never
// serves more than MaxRepairPerDepot concurrent repair passes no matter
// how wide the worker pool is.
package repaird

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/slo"
	"repro/internal/transfer"
	"repro/internal/vclock"
)

// AvailabilitySource supplies a depot's measured availability fraction.
// *stackmon.Monitor satisfies it.
type AvailabilitySource interface {
	Availability(addr string) (float64, bool)
}

// DirectoryLister enumerates the exNode directory. *registry.Directory
// and *registry.QuorumClient satisfy it.
type DirectoryLister interface {
	ListExNodes() ([]registry.DirEntry, error)
}

// Config parameterizes a Daemon.
type Config struct {
	// Tools is the repair client (required, with Directory set — the
	// daemon loads, maintains, and republishes exNodes through it).
	Tools *core.Tools
	// Lister walks the directory. Defaults to Tools.Directory when that
	// implements DirectoryLister.
	Lister DirectoryLister
	// ShardIndex / ShardCount partition the namespace across a daemon
	// fleet (defaults 0 of 1: own everything).
	ShardIndex int
	ShardCount int
	// Interval is Run's scan cadence (default 30m).
	Interval time.Duration
	// Workers bounds concurrent Maintain passes (default 4).
	Workers int
	// MaxRepairPerDepot bounds concurrent repair passes touching any one
	// depot (default 2), via a dedicated per-depot transfer limiter.
	MaxRepairPerDepot int
	// RiskThreshold is the minimum score that queues a file (default
	// 0.05: skip only files with nothing at all to report).
	RiskThreshold float64
	// Maintain tunes each pass (MinCoverage doubles as the durability
	// target unless DurabilityTarget overrides it).
	Maintain core.MaintainOptions
	// DurabilityTarget is the effective-redundancy floor the durability
	// SLI is judged against (default Maintain.MinCoverage, default 2).
	DurabilityTarget int
	// Avail feeds measured depot availability into risk scores (optional;
	// typically a stackmon.Monitor).
	Avail AvailabilitySource
	// SLO, when set, receives one durability verdict per scanned file,
	// keyed by this daemon's shard.
	SLO *slo.Engine
	// Recorder, when set, gives the daemon a flight ring: its ObsMux then
	// serves /trace/<id> and /postmortem/<trace> so fleet trace assembly
	// (internal/obsfleet) can include maintenance spans.
	Recorder *obs.FlightRecorder
	// Logger (default: discard).
	Logger *slog.Logger
}

// Counters is a snapshot of the daemon's lifetime activity.
type Counters struct {
	Sweeps        int64 `json:"sweeps"`
	Scanned       int64 `json:"scanned"`        // files visited (in-shard)
	Skipped       int64 `json:"skipped"`        // out-of-shard names seen
	Queued        int64 `json:"queued"`         // files enqueued for a pass
	Passes        int64 `json:"passes"`         // Maintain passes executed
	PassFailures  int64 `json:"pass_failures"`  // passes that returned an error
	Refreshed     int64 `json:"refreshed"`      // allocations re-leased
	TrimmedDead   int64 `json:"trimmed_dead"`   // dead mappings dropped
	ReplicasAdded int64 `json:"replicas_added"` // repair copies uploaded
	Republished   int64 `json:"republished"`    // directory puts after a pass
	Conflicts     int64 `json:"conflicts"`      // puts lost to a version race
	AtRisk        int64 `json:"at_risk"`        // last sweep: files below target
	BelowTarget   int64 `json:"below_target"`   // lifetime below-target verdicts
}

// Daemon is one member of the maintenance fleet.
type Daemon struct {
	cfg     Config
	clock   vclock.Clock
	started time.Time
	q       *queue
	lim     *transfer.Engine // pass-level per-depot repair limiter

	mu sync.Mutex
	c  Counters
}

// New builds a Daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Tools == nil {
		return nil, errors.New("repaird: Config.Tools is required")
	}
	if cfg.Tools.Directory == nil {
		return nil, errors.New("repaird: Tools.Directory is required")
	}
	if cfg.Lister == nil {
		l, ok := cfg.Tools.Directory.(DirectoryLister)
		if !ok {
			return nil, errors.New("repaird: Config.Lister is required (directory cannot list)")
		}
		cfg.Lister = l
	}
	if cfg.ShardCount <= 0 {
		cfg.ShardCount = 1
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
		return nil, fmt.Errorf("repaird: shard %d of %d out of range", cfg.ShardIndex, cfg.ShardCount)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxRepairPerDepot <= 0 {
		cfg.MaxRepairPerDepot = 2
	}
	if cfg.RiskThreshold <= 0 {
		cfg.RiskThreshold = 0.05
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	clk := cfg.Tools.Clock
	if clk == nil {
		clk = vclock.Real()
	}
	return &Daemon{
		cfg:     cfg,
		clock:   clk,
		started: clk.Now(),
		q:       newQueue(),
		lim: transfer.New(transfer.Config{
			MaxPerDepot: cfg.MaxRepairPerDepot,
			Clock:       clk,
		}),
	}, nil
}

// target returns the durability floor verdicts are judged against.
func (d *Daemon) target() int {
	if d.cfg.DurabilityTarget > 0 {
		return d.cfg.DurabilityTarget
	}
	if d.cfg.Maintain.MinCoverage > 0 {
		return d.cfg.Maintain.MinCoverage
	}
	return 2
}

// shardKey labels this daemon's partition in SLI feeds and metrics.
func (d *Daemon) shardKey() string {
	return fmt.Sprintf("shard%d/%d", d.cfg.ShardIndex, d.cfg.ShardCount)
}

// Owns reports whether name falls in this daemon's shard.
func (d *Daemon) Owns(name string) bool {
	return registry.ShardFor(name, d.cfg.ShardCount) == d.cfg.ShardIndex
}

// Sweep walks the shard once: list the directory, score every owned
// file, queue the risky ones. It returns the risks scored this sweep
// (queued or not), sorted riskiest-first.
func (d *Daemon) Sweep() ([]Risk, error) {
	entries, err := d.cfg.Lister.ListExNodes()
	if err != nil {
		return nil, fmt.Errorf("repaird: directory walk: %w", err)
	}
	now := d.clock.Now()
	var risks []Risk
	var scanned, skipped, queued, atRisk int64
	for _, ent := range entries {
		if !d.Owns(ent.Name) {
			skipped++
			continue
		}
		scanned++
		x, ver, err := d.cfg.Tools.LoadExNode(ent.Name)
		if err != nil {
			// Treat an unreadable exNode as maximum risk: the pass will
			// retry the load and surface the real failure.
			d.cfg.Logger.Warn("repaird: load failed", "file", ent.Name, "err", err)
			risks = append(risks, Risk{Name: ent.Name, Version: ent.Version, Score: 1, Reason: "directory load failed"})
			continue
		}
		score, reason := d.score(x, now)
		risks = append(risks, Risk{Name: ent.Name, Version: ver, Score: score, Reason: reason})
		below := EffectiveCoverage(x, now, d.depotLive) < d.target()
		if below {
			atRisk++
		}
		d.recordDurability(!below)
	}
	for _, r := range risks {
		if r.Score >= d.cfg.RiskThreshold {
			if d.q.push(r) {
				queued++
			}
		}
	}
	sort.Slice(risks, func(i, j int) bool {
		if risks[i].Score != risks[j].Score {
			return risks[i].Score > risks[j].Score
		}
		return risks[i].Name < risks[j].Name
	})
	d.mu.Lock()
	d.c.Sweeps++
	d.c.Scanned += scanned
	d.c.Skipped += skipped
	d.c.Queued += queued
	d.c.AtRisk = atRisk
	d.mu.Unlock()
	d.cfg.Logger.Info("repaird: sweep",
		"shard", d.shardKey(), "scanned", scanned, "queued", queued, "at_risk", atRisk)
	return risks, nil
}

// recordDurability feeds one verdict into the SLO engine and counters.
func (d *Daemon) recordDurability(ok bool) {
	if !ok {
		d.mu.Lock()
		d.c.BelowTarget++
		d.mu.Unlock()
	}
	if d.cfg.SLO != nil {
		slo.ObserveDurability(d.cfg.SLO)(d.shardKey(), ok)
	}
}

// Drain runs queued passes through the worker pool until the queue is
// empty, then returns. Run calls it after every sweep; tests call it
// directly for a deterministic sweep-then-drain round.
func (d *Daemon) Drain() {
	var wg sync.WaitGroup
	for i := 0; i < d.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r, ok := d.q.pop()
				if !ok {
					return
				}
				d.pass(r)
			}
		}()
	}
	wg.Wait()
}

// pass executes one rate-limited Maintain pass over a queued file.
func (d *Daemon) pass(r Risk) {
	x, ver, err := d.cfg.Tools.LoadExNode(r.Name)
	if err != nil {
		d.fail(r, fmt.Errorf("load: %w", err))
		return
	}
	// Claim a repair slot on every depot the file touches, in sorted
	// order so concurrent workers never hold-and-wait in a cycle.
	addrs := map[string]bool{}
	for _, m := range x.Mappings {
		if a := mappingAddr(m); a != "" {
			addrs[a] = true
		}
	}
	sorted := make([]string, 0, len(addrs))
	for a := range addrs {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	for _, a := range sorted {
		release := d.lim.Acquire(a)
		defer release()
	}

	out, rep, err := d.cfg.Tools.Maintain(x, d.cfg.Maintain)
	d.mu.Lock()
	d.c.Passes++
	if rep != nil {
		d.c.Refreshed += int64(rep.Refreshed)
		d.c.TrimmedDead += int64(rep.TrimmedDead)
		d.c.ReplicasAdded += int64(rep.AddedReplicas)
	}
	d.mu.Unlock()
	if err != nil {
		d.fail(r, err)
		return
	}
	if rep.Refreshed > 0 || rep.TrimmedDead > 0 || rep.AddedReplicas > 0 {
		if _, err := d.cfg.Tools.StoreExNode(r.Name, out, ver); err != nil {
			if errors.Is(err, registry.ErrVersionConflict) {
				// Another writer (a user, or a sibling daemon racing a
				// reconfiguration) got there first; the next sweep sees
				// the merged truth. The replicas this pass added are
				// then named by no stored exNode: release them now
				// instead of leaving them allocated until their lease
				// runs out.
				d.releaseAdded(r.Name, x, out)
				d.mu.Lock()
				d.c.Conflicts++
				d.mu.Unlock()
				d.cfg.Logger.Info("repaird: republish conflict", "file", r.Name)
				return
			}
			d.fail(r, fmt.Errorf("republish: %w", err))
			return
		}
		d.mu.Lock()
		d.c.Republished++
		d.mu.Unlock()
	}
	d.cfg.Logger.Info("repaird: pass",
		"file", r.Name, "score", fmt.Sprintf("%.2f", r.Score), "reason", r.Reason,
		"refreshed", rep.Refreshed, "trimmed", rep.TrimmedDead, "added", rep.AddedReplicas)
}

// releaseAdded deletes from IBP the replicas a pass added to out but
// could not publish: the mappings whose read capability neither x nor the
// exNode now stored under name holds. The directory is read again because
// a conflict does not prove the put missed: the quorum client has
// reported one for a put that landed. When that read fails, nothing is
// released and the leases reclaim the bytes.
func (d *Daemon) releaseAdded(name string, x, out *exnode.ExNode) {
	cur, _, err := d.cfg.Tools.LoadExNode(name)
	if err != nil {
		d.cfg.Logger.Warn("repaird: not releasing unpublished replicas", "file", name, "err", err)
		return
	}
	named := map[ibp.Cap]bool{}
	for _, ms := range [][]*exnode.Mapping{x.Mappings, cur.Mappings} {
		for _, m := range ms {
			named[m.Read] = true
		}
	}
	var added []int
	for i, m := range out.Mappings {
		if !named[m.Read] {
			added = append(added, i)
		}
	}
	if len(added) > 0 {
		// Trim logs each failed delete; its only error is a bad index.
		d.cfg.Tools.Trim(out, core.TrimOptions{Indices: added, DeleteFromIBP: true}) //nolint:errcheck // indices come from out
	}
}

// fail records a failed pass. The file stays out of the queue until the
// next sweep rescores it — a crashing file must not wedge the pool.
func (d *Daemon) fail(r Risk, err error) {
	d.mu.Lock()
	d.c.PassFailures++
	d.mu.Unlock()
	d.cfg.Logger.Warn("repaird: pass failed", "file", r.Name, "err", err)
}

// Run sweeps and drains on the configured interval until stop is closed.
// The first round runs immediately.
func (d *Daemon) Run(stop <-chan struct{}) {
	for {
		if _, err := d.Sweep(); err != nil {
			d.cfg.Logger.Warn("repaird: sweep failed", "err", err)
		}
		d.Drain()
		select {
		case <-stop:
			return
		case <-d.clock.After(d.cfg.Interval):
		}
	}
}

// Counters returns a snapshot of the daemon's activity. QueueDepth is
// reported separately by Metrics.
func (d *Daemon) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c
}

// Limiter exposes the pass-level repair limiter (tests assert repair
// concurrency was actually capped by it).
func (d *Daemon) Limiter() *transfer.Engine { return d.lim }
