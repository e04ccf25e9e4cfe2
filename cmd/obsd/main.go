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
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
	"repro/internal/registry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("obsd: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("obsd", flag.ExitOnError)
	var (
		lboneAddr     = fs.String("lbone", os.Getenv("XND_LBONE"), "registry server or replica set, comma-separated (or $XND_LBONE); the control table there is the member source")
		staticMembers = fs.String("static", "", "additional members as comma-separated host:port control addresses (scraped even without a registry)")
		listen        = fs.String("listen", ":9790", "serve the fleet view on this address")
		interval      = fs.Duration("interval", 15*time.Second, "sweep cadence")
		scrapeTimeout = fs.Duration("scrape-timeout", 10*time.Second, "per-member request timeout")
		retention     = fs.Duration("retention", 24*time.Hour, "fleet time-series retention: /fleet/query windows are clamped to this")
		budgetOut     = fs.String("budget-out", "", "write the error-budget ledger (FLEET_budget.json) here on shutdown (empty = off)")
		reportOut     = fs.String("report-out", "", "write the operator report (FLEET_report.json) here on shutdown (empty = off)")
		profileDir    = fs.String("profile-dir", "", "capture alert-triggered pprof profiles into this directory (empty = off)")
		cpuSeconds    = fs.Int("cpu-seconds", 0, "CPU profile length for alert-triggered capture (0 = heap only)")
		pprofOn       = fs.Bool("pprof", false, "also serve /debug/pprof on the listener")
		logJSON       = fs.Bool("log-json", false, "log one JSON object per line instead of text")
	)
	fs.Parse(args)

	logger := obs.NewLogger(obs.LogConfig{JSON: *logJSON, Component: "obsd"})

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

	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Print("shutting down")
		close(stop)
	}()

	// obsd is a fleet member too: it announces its own control endpoint so
	// a peer aggregator (or a fleet of one pane each) can scrape it.
	agg := obsfleet.New(cfg)
	selfAddr, err := registry.ServeControl(ctl, agg.Mux(), *listen, *pprofOn,
		lbone.ControlInfo{Component: "obsd", Name: "obsd"}, *interval, logger, stop)
	if err != nil {
		return err
	}
	log.Printf("fleet view on http://%s/fleet/report", selfAddr)

	log.Printf("sweeping every %v (retention %v)", *interval, *retention)
	agg.Run(stop)

	// Graceful shutdown: flush the shutdown artifacts, then deregister.
	if *budgetOut != "" {
		if err := agg.WriteBudget(*budgetOut); err != nil {
			log.Printf("budget flush: %v", err)
		} else {
			log.Printf("budget ledger written to %s", *budgetOut)
		}
	}
	if *reportOut != "" {
		if err := writeReport(agg, *reportOut); err != nil {
			log.Printf("report flush: %v", err)
		} else {
			log.Printf("fleet report written to %s", *reportOut)
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
