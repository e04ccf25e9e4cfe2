// Command maintaind is the autonomous maintenance daemon: the service
// form of `xnd maintain`, scaled to a fleet. It walks the replicated
// exNode directory (its shard of it, when several daemons partition the
// namespace), scores every file's loss risk from the health scoreboard,
// an embedded availability monitor, and NWS forecasts, and runs
// prioritized Maintain passes — refresh expiring leases, trim dead
// mappings, re-replicate thin extents — through a worker pool that is
// rate-limited per depot so repair never starves user traffic.
//
// Usage:
//
//	maintaind -lbone r1:6767,r2:6767,r3:6767 \
//	          -shard-index 0 -shard-count 4 \
//	          -interval 30m -workers 4 -max-per-depot 2 \
//	          -min-coverage 2 -refresh-below 24h -refresh-to 240h \
//	          -metrics-listen :9791
//
// A fleet of N daemons runs with -shard-count N and distinct
// -shard-index values: each owns exactly the names its shard hashes to,
// with no coordination beyond the shared directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/registry"
	"repro/internal/repaird"
	"repro/internal/slo"
	"repro/internal/stackmon"
)

func main() {
	dm := daemon.New("maintaind")
	if err := run(dm, os.Args[1:]); err != nil {
		dm.Fatal("maintaind", err)
	}
}

func run(dm *daemon.Daemon, args []string) error {
	fs := flag.NewFlagSet("maintaind", flag.ExitOnError)
	var (
		lboneAddr    = fs.String("lbone", os.Getenv("XND_LBONE"), "registry server or replica set, comma-separated (or $XND_LBONE); directory walks and depot discovery go through majority quorums")
		siteName     = fs.String("site", "UTK", "this daemon's site for NWS series and proximity placement")
		shardIndex   = fs.Int("shard-index", 0, "this daemon's shard (0-based)")
		shardCount   = fs.Int("shard-count", 1, "total daemons partitioning the namespace")
		interval     = fs.Duration("interval", 30*time.Minute, "sweep cadence")
		workers      = fs.Int("workers", 4, "concurrent Maintain passes")
		maxPerDepot  = fs.Int("max-per-depot", 2, "concurrent repair passes touching any one depot")
		minCoverage  = fs.Int("min-coverage", 2, "redundancy floor each pass restores (also the durability SLI target)")
		refreshBelow = fs.Duration("refresh-below", 24*time.Hour, "refresh allocations expiring within this window")
		refreshTo    = fs.Duration("refresh-to", 0, "new lifetime granted by a refresh (0 = tool default)")
		riskFloor    = fs.Float64("risk-threshold", 0.05, "minimum risk score that queues a file")
		probeEvery   = fs.Duration("probe-interval", 5*time.Minute, "embedded availability monitor sweep cadence (0 = no monitor)")
		opTimeout    = fs.Duration("timeout", 30*time.Second, "per-operation timeout")
	)
	dm.SurfaceFlags(fs, "metrics-listen", "", "serve /metrics, /healthz, /report, /slo on this address (empty = off)")
	dm.LogFlag(fs)
	fs.Parse(args)
	dm.Start()
	logger := dm.Logger

	if *lboneAddr == "" {
		return fmt.Errorf("-lbone is required (the replicated directory is what maintaind maintains)")
	}
	site, ok := geo.LookupSite(*siteName)
	if !ok {
		return fmt.Errorf("unknown site %q", *siteName)
	}

	sloEngine := slo.New(slo.Config{Logger: logger})

	// One health scoreboard shared by every IBP consumer in the process:
	// the monitor's probes, the repair passes, and placement ranking all
	// see the same circuits.
	sb := health.New(health.Config{})
	client := ibp.NewClient(
		ibp.WithOpTimeout(*opTimeout),
		ibp.WithHealth(sb),
		ibp.WithObserver(slo.ObserveIBP(sloEngine)),
	)
	defer client.Close()
	qc := registry.NewQuorumClient(*lboneAddr,
		registry.WithTimeouts(5*time.Second, *opTimeout),
		registry.WithObserver(slo.ObserveRegistry(sloEngine)),
	)
	tools := &core.Tools{
		IBP:       client,
		LBone:     qc,
		Directory: registry.NewDirectory(qc),
		NWS:       nws.NewService(nil),
		Health:    sb,
		Site:      site.Name,
		Loc:       site.Loc,
		Logger:    logger,
	}

	cfg := repaird.Config{
		Tools:             tools,
		ShardIndex:        *shardIndex,
		ShardCount:        *shardCount,
		Interval:          *interval,
		Workers:           *workers,
		MaxRepairPerDepot: *maxPerDepot,
		RiskThreshold:     *riskFloor,
		SLO:               sloEngine,
		Recorder:          dm.Recorder,
		Logger:            logger,
		Maintain: core.MaintainOptions{
			MinCoverage:  *minCoverage,
			RefreshBelow: *refreshBelow,
			RefreshTo:    *refreshTo,
		},
	}

	// The embedded availability monitor probes the L-Bone depot set and
	// feeds the risk scorer its measured series (and, via the shared
	// scoreboard, keeps circuits fresh between repair passes).
	if *probeEvery > 0 {
		mon, err := stackmon.New(stackmon.Config{
			Client:   client,
			Interval: *probeEvery,
			Discover: dm.DiscoverDepots(qc),
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		cfg.Avail = mon
		go mon.Run(dm.Stop)
	}

	d, err := repaird.New(cfg)
	if err != nil {
		return err
	}

	// Announce the control endpoint so obsd discovers this shard.
	if _, err := dm.ServeControl(qc, d.Surface(), lbone.ControlInfo{
		Component: "maintaind",
		Name:      fmt.Sprintf("maintaind-%d", *shardIndex),
	}, *probeEvery, dm.Stop); err != nil {
		return err
	}

	logger.Info("maintaining", "shard", *shardIndex, "shards", *shardCount, "interval", *interval,
		"workers", *workers, "repair_slots_per_depot", *maxPerDepot)
	d.Run(dm.Stop)
	qc.Close()

	c := d.Counters()
	logger.Info("done", "sweeps", c.Sweeps, "passes", c.Passes, "failed", c.PassFailures,
		"refreshed", c.Refreshed, "trimmed", c.TrimmedDead, "replicas_added", c.ReplicasAdded, "conflicts", c.Conflicts)
	return nil
}
