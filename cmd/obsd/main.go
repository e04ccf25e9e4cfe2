// Command obsd is the fleet observability aggregator: one daemon that
// turns a stack of per-daemon control endpoints into a single pane of
// glass. It discovers every registered control endpoint through the
// L-Bone's control table (daemons self-register their metrics listener),
// scrapes each member's /metrics and /slo on an interval, and serves:
//
//	/metrics            obsd's own series plus fleet_ aggregates
//	/fleet/slo          every member's SLO snapshot + firing alerts
//	/fleet/report       operator report (JSON; ?format=md for markdown)
//	/fleet/trace/<id>   a cross-daemon trace joined into one timeline
//	/fleet/query        window functions over the retained fleet series
//	/fleet/series       time-series inventory + drop accounting
//	/fleet/budget       error-budget ledger with a pass|fail verdict
//	/fleet/attribution  per-layer/per-depot tail-latency breakdown
//	/healthz            liveness
//
// Every sweep also appends one sample per canonical fleet series into a
// bounded in-memory time-series store (-retention clamps how far back
// queries reach), so burn history survives between scrapes without any
// external TSDB.
//
// When a member's burn-rate alert transitions to firing, obsd captures
// that member's pprof heap (and optionally CPU) profiles into
// -profile-dir, alongside wherever postmortem bundles land.
//
// On SIGTERM/SIGINT obsd shuts down gracefully: it flushes the budget
// ledger (-budget-out) and operator report (-report-out) to disk and
// deregisters its own control endpoint before exiting.
//
// Usage:
//
//	obsd -lbone r1:6767,r2:6767,r3:6767 -listen :9790 \
//	     -interval 15s -retention 24h -budget-out FLEET_budget.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/lbone"
	"repro/internal/obsfleet"
	"repro/internal/registry"
)

func main() {
	dm := daemon.New("obsd")
	if err := run(dm, os.Args[1:]); err != nil {
		dm.Fatal("obsd", err)
	}
}

func run(dm *daemon.Daemon, args []string) error {
	fs := flag.NewFlagSet("obsd", flag.ExitOnError)
	var (
		lboneAddr     = fs.String("lbone", os.Getenv("XND_LBONE"), "registry server or replica set, comma-separated (or $XND_LBONE); the control table there is the member source")
		staticMembers = fs.String("static", "", "additional members as comma-separated host:port control addresses (scraped even without a registry)")
		interval      = fs.Duration("interval", 15*time.Second, "sweep cadence")
		scrapeTimeout = fs.Duration("scrape-timeout", 10*time.Second, "per-member request timeout")
		retention     = fs.Duration("retention", 24*time.Hour, "fleet time-series retention: /fleet/query windows are clamped to this")
		budgetOut     = fs.String("budget-out", "", "write the error-budget ledger (FLEET_budget.json) here on shutdown (empty = off)")
		reportOut     = fs.String("report-out", "", "write the operator report (FLEET_report.json) here on shutdown (empty = off)")
		profileDir    = fs.String("profile-dir", "", "capture alert-triggered pprof profiles into this directory (empty = off)")
		cpuSeconds    = fs.Int("cpu-seconds", 0, "CPU profile length for alert-triggered capture (0 = heap only)")
	)
	dm.SurfaceFlags(fs, "listen", ":9790", "serve the fleet view on this address")
	dm.LogFlag(fs)
	fs.Parse(args)
	dm.Start()
	logger := dm.Logger

	cfg := obsfleet.Config{
		Interval:          *interval,
		ScrapeTimeout:     *scrapeTimeout,
		Retention:         *retention,
		ProfileDir:        *profileDir,
		CPUProfileSeconds: *cpuSeconds,
		Logger:            logger,
	}
	var ctl *registry.QuorumClient
	if *lboneAddr != "" {
		ctl = registry.NewQuorumClient(*lboneAddr)
		cfg.Source = ctl
	}
	for _, addr := range strings.Split(*staticMembers, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			cfg.Static = append(cfg.Static, lbone.ControlInfo{
				Addr: addr, Component: "static", Name: addr,
			})
		}
	}
	if cfg.Source == nil && len(cfg.Static) == 0 {
		return errors.New("no member source: set -lbone (control-table discovery) or -static")
	}

	// obsd is a fleet member too: it announces its own control endpoint so
	// a peer aggregator (or a fleet of one pane each) can scrape it.
	agg := obsfleet.New(cfg)
	selfAddr, err := dm.ServeControl(ctl, agg.Surface(),
		lbone.ControlInfo{Component: "obsd", Name: "obsd"}, *interval, dm.Stop)
	if err != nil {
		return err
	}
	logger.Info("fleet view", "url", "http://"+selfAddr+"/fleet/report")

	logger.Info("sweeping", "interval", *interval, "retention", *retention)
	agg.Run(dm.Stop)

	// Graceful shutdown: flush the shutdown artifacts, then deregister.
	if *budgetOut != "" {
		if err := agg.WriteBudget(*budgetOut); err != nil {
			logger.Error("budget flush", "err", err)
		} else {
			logger.Info("budget ledger written to " + *budgetOut)
		}
	}
	if *reportOut != "" {
		if err := writeReport(agg, *reportOut); err != nil {
			logger.Error("report flush", "err", err)
		} else {
			logger.Info("fleet report written to " + *reportOut)
		}
	}
	if ctl != nil {
		ctl.Close()
	}
	return nil
}

// writeReport renders the operator report as JSON into path.
func writeReport(agg *obsfleet.Aggregator, path string) error {
	data, err := json.MarshalIndent(agg.FleetReport(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
