// Command stackmon is the network-storage availability monitor: a
// continuous re-run of the paper's three-day, 14-depot study (§3). It
// sweeps an L-Bone depot set on a fixed interval — STATUS probe plus an
// optional allocate/store/load/delete round — and serves the resulting
// time series as Prometheus metrics and paper-style availability reports.
//
// Usage:
//
//	stackmon run -lbone host:6767 -interval 5m -payload 65536 \
//	             -metrics-listen :9790 -state-out stackmon.json
//	stackmon run -depots host1:6714,host2:6714 -interval 1m
//	stackmon sim -duration 24h -interval 5m -outages "D02:6h-9h,D05:1h-3h" \
//	             -json study.json
//	stackmon report -in stackmon.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/slo"
	"repro/internal/stackmon"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackmon:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stackmon <command> [flags]

commands:
  run     monitor a live depot set (static -depots list and/or -lbone discovery)
  sim     run a faultnet-simulated study on a virtual clock and print the report
  report  render a saved state file (-state-out of a run) as a markdown table`)
	os.Exit(2)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		depots    = fs.String("depots", "", "comma-separated depot addresses to monitor")
		lboneAddr = fs.String("lbone", os.Getenv("XND_LBONE"), "L-Bone server for depot discovery (or $XND_LBONE)")
		interval  = fs.Duration("interval", stackmon.DefInterval, "sweep interval")
		payload   = fs.Int("payload", 64<<10, "data-round payload bytes (0 = probe-only)")
		allocFor  = fs.Duration("alloc-duration", stackmon.DefDuration, "data-round allocation lifetime")
		opTimeout = fs.Duration("timeout", 30*time.Second, "per-operation timeout")
		stateOut  = fs.String("state-out", "", "write the study (JSON, sample detail included) here on exit and every sweep")
		sloOn     = fs.Bool("slo", false, "evaluate SLO burn-rate alerts each sweep and serve them at /slo")
	)
	dm := daemon.New("stackmon")
	dm.SurfaceFlags(fs, "metrics-listen", "", "serve /metrics, /healthz, /report on this address (empty = off)")
	fs.Parse(args)
	dm.Start()
	logger := dm.Logger

	client := ibp.NewClient(ibp.WithOpTimeout(*opTimeout))
	defer client.Close()
	cfg := stackmon.Config{
		Client:   client,
		Interval: *interval, Payload: *payload, Duration: *allocFor,
		Logger: logger,
	}
	if *sloOn {
		cfg.SLO = slo.New(slo.Config{
			Objectives: slo.DefaultObjectives(),
			Bucket:     *interval,
			Logger:     logger,
		})
	}
	if *depots != "" {
		for _, a := range strings.Split(*depots, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Depots = append(cfg.Depots, a)
			}
		}
	}
	var qc *registry.QuorumClient
	if *lboneAddr != "" {
		qc = registry.NewQuorumClient(*lboneAddr, registry.WithTimeouts(5*time.Second, *opTimeout))
		defer qc.Close()
		cfg.Discover = dm.DiscoverDepots(qc)
	}
	mon, err := stackmon.New(cfg)
	if err != nil {
		return err
	}

	// Announce the control endpoint so obsd discovers the monitor.
	if _, err := dm.ServeControl(qc, mon.Surface(),
		lbone.ControlInfo{Component: "stackmon", Name: "stackmon"}, *interval, dm.Stop); err != nil {
		return err
	}

	logger.Info("monitoring", "interval", *interval, "payload_bytes", *payload)
	if *stateOut != "" {
		// Persist after every sweep so a crash loses at most one interval.
		go func() {
			for {
				select {
				case <-dm.Stop:
					return
				case <-time.After(*interval):
					if err := writeStudy(*stateOut, mon.Snapshot(true)); err != nil {
						logger.Error("state-out", "err", err)
					}
				}
			}
		}()
	}
	mon.Run(dm.Stop)

	st := mon.Snapshot(true)
	if *stateOut != "" {
		if err := writeStudy(*stateOut, st); err != nil {
			return err
		}
		logger.Info("study written to " + *stateOut)
	}
	fmt.Print(st.Markdown())
	return nil
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	var (
		nDepots  = fs.Int("depots", 14, "simulated depot count")
		duration = fs.Duration("duration", 24*time.Hour, "virtual study length")
		interval = fs.Duration("interval", stackmon.DefInterval, "sweep interval")
		payload  = fs.Int("payload", 16<<10, "data-round payload bytes (0 = probe-only)")
		seed     = fs.Int64("seed", 1, "deterministic seed for link jitter")
		outages  = fs.String("outages", "", `scripted outages as "NAME:FROM-TO,..." offsets, e.g. "D02:6h-9h,D05:1h-3h"`)
		jsonOut  = fs.String("json", "", "also write the full study as JSON here")
		sloOn    = fs.Bool("slo", false, "evaluate SLO burn-rate alerts against the sweep results")
		sloOut   = fs.String("slo-out", "", "with -slo, write alert firings as JSON here")
		verbose  = fs.Bool("v", false, "log depot state transitions")
	)
	fs.Parse(args)

	cfg := stackmon.SimConfig{
		Depots:   stackmon.SimDepots(*nDepots),
		Duration: *duration, Interval: *interval,
		Payload: *payload, Seed: *seed,
	}
	if *sloOn || *sloOut != "" {
		cfg.Objectives = slo.DefaultObjectives()
	}
	var err error
	if cfg.Outages, err = parseOutages(*outages); err != nil {
		return err
	}
	logger := obs.NewLogger(obs.LogConfig{Component: "stackmon"})
	if *verbose {
		cfg.Logger = logger
	}

	start := time.Now()
	st, addrOf, engine, err := stackmon.RunSim(cfg)
	if err != nil {
		return err
	}
	nameOf := map[string]string{}
	for name, addr := range addrOf {
		nameOf[addr] = name
	}
	for i := range st.Depots {
		if n := nameOf[st.Depots[i].Addr]; n != "" {
			st.Depots[i].Addr = n
		}
	}
	sort.Slice(st.Depots, func(i, j int) bool { return st.Depots[i].Addr < st.Depots[j].Addr })
	logger.Info("simulated", "duration", *duration, "wall", time.Since(start).Round(time.Millisecond))
	fmt.Print(st.Markdown())
	if engine != nil {
		firings := engine.Firings()
		// Report alerts under depot names, not the synthetic sim addresses.
		for i := range firings {
			if n := nameOf[firings[i].Key]; n != "" {
				firings[i].Key = n
			}
		}
		logger.Info("slo alert firings", "n", len(firings), "over", *duration)
		for _, f := range firings {
			resolved := "still firing"
			if !f.ResolvedAt.IsZero() {
				resolved = "resolved " + f.ResolvedAt.UTC().Format(time.RFC3339)
			}
			logger.Info("slo firing", "severity", f.Severity, "objective", f.Objective, "rule", f.Rule,
				"key", f.Key, "burn", fmt.Sprintf("%.1f", f.PeakBurn),
				"fired", f.FiredAt.UTC().Format(time.RFC3339), "state", resolved)
		}
		if *sloOut != "" {
			b, err := json.MarshalIndent(firings, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*sloOut, append(b, '\n'), 0o644); err != nil {
				return err
			}
			logger.Info("slo firings written to " + *sloOut)
		}
	}
	if *jsonOut != "" {
		if err := writeStudy(*jsonOut, st); err != nil {
			return err
		}
		logger.Info("study written to " + *jsonOut)
	}
	return nil
}

// parseOutages parses "NAME:FROM-TO,NAME:FROM-TO" where FROM/TO are
// Go durations offset from the study start.
func parseOutages(s string) ([]stackmon.SimOutage, error) {
	if s == "" {
		return nil, nil
	}
	var out []stackmon.SimOutage
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, window, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad outage %q, want NAME:FROM-TO", part)
		}
		fromS, toS, ok := strings.Cut(window, "-")
		if !ok {
			return nil, fmt.Errorf("bad outage window %q, want FROM-TO", window)
		}
		from, err1 := time.ParseDuration(fromS)
		to, err2 := time.ParseDuration(toS)
		if err1 != nil || err2 != nil || to <= from {
			return nil, fmt.Errorf("bad outage window %q", window)
		}
		out = append(out, stackmon.SimOutage{Depot: name, From: from, To: to})
	}
	return out, nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	in := fs.String("in", "", "study JSON file (a run's -state-out or a sim's -json)")
	asJSON := fs.Bool("json", false, "re-emit normalized JSON instead of markdown")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("report wants -in <study.json>")
	}
	b, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var st stackmon.Study
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("parsing %s: %w", *in, err)
	}
	if *asJSON {
		out, err := st.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	}
	fmt.Print(st.Markdown())
	return nil
}

func writeStudy(path string, st stackmon.Study) error {
	b, err := st.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
