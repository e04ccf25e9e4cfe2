// Command experiments regenerates every table and figure of the paper's
// evaluation (§3) on the simulated testbed: Test 1 (exnode availability),
// Test 2 (availability and download times from three sites), Test 3
// (downloads from a heavily trimmed exnode), plus the L-Bone listing of
// Figure 2. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
//
// Usage:
//
//	experiments -test all                # full paper-scale runs (minutes)
//	experiments -test 2 -rounds 100      # scaled-down Test 2
//	experiments -show lbone              # Figure 2 registry listing
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/lbone"
)

func main() {
	var (
		which    = flag.String("test", "all", "which test to run: 1, 2, 3, all")
		rounds   = flag.Int("rounds", 0, "monitoring rounds (0 = paper scale)")
		size     = flag.Int64("size", 0, "file size in bytes (0 = paper scale)")
		interval = flag.Duration("interval", 0, "interval between rounds (0 = paper scale)")
		seed     = flag.Int64("seed", 42, "random seed for outages and jitter")
		show     = flag.String("show", "", "only print one artifact: lbone | replication")
		noNWS    = flag.Bool("no-nws", false, "disable NWS-guided downloads")
	)
	flag.Parse()

	if *show == "lbone" {
		showLBone(*seed)
		return
	}
	if *show == "replication" {
		runReplicationStudy(experiments.Config{
			Seed: *seed, Rounds: *rounds, FileSize: *size, Interval: *interval, UseNWS: !*noNWS,
		})
		return
	}

	cfg := experiments.Config{
		Seed:     *seed,
		Rounds:   *rounds,
		FileSize: *size,
		Interval: *interval,
		UseNWS:   !*noNWS,
	}
	switch *which {
	case "1":
		runTest1(cfg)
	case "2":
		runTest2(cfg)
	case "3":
		runTest3(cfg)
	case "all":
		runTest1(cfg)
		runTest2(cfg)
		runTest3(cfg)
	default:
		log.Fatalf("experiments: unknown -test %q", *which)
	}
}

func banner(s string) {
	fmt.Printf("\n%s\n%s\n\n", s, dashes(len(s)))
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '='
	}
	return string(b)
}

func runTest1(cfg experiments.Config) {
	banner("Test 1: Availability of Capabilities in an exNode (paper §3.1)")
	start := time.Now()
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{Seed: cfg.Seed})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	res, err := experiments.RunTest1(tb, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderTest1(res))
	fmt.Fprintf(os.Stderr, "[test 1 simulated in %v wall-clock]\n", time.Since(start).Round(time.Millisecond))
}

func runTest2(cfg experiments.Config) {
	banner("Test 2: Availability and Download Times to Multiple Sites (paper §3.2)")
	start := time.Now()
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{Seed: cfg.Seed, Depots: experiments.Test2Depots()})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	res, err := experiments.RunTest2(tb, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderTest2(res))
	fmt.Fprintf(os.Stderr, "[test 2 simulated in %v wall-clock]\n", time.Since(start).Round(time.Millisecond))
}

func runTest3(cfg experiments.Config) {
	banner("Test 3: Simulating Network Unavailability (paper §3.3)")
	start := time.Now()
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{
		Seed: cfg.Seed, StableLinks: true, Depots: experiments.Test3Depots(cfg),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	res, err := experiments.RunTest3(tb, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderTest3(res))
	fmt.Fprintf(os.Stderr, "[test 3 simulated in %v wall-clock]\n", time.Since(start).Round(time.Millisecond))
}

func runReplicationStudy(cfg experiments.Config) {
	banner("Replication study: how much replication is enough? (paper §3.3 future work)")
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{Seed: cfg.Seed})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	res, err := experiments.RunReplicationStudy(tb, cfg, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderReplicationStudy(res))
}

func showLBone(seed int64) {
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{Seed: seed, PerfectNetwork: true})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	tb.RegisterWiderLBone()
	fmt.Print(experiments.RenderLBone(tb.Registry.Query(lbone.Requirements{})))
}
