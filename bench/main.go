// Command stackbench is the repository's benchmark: four fleet workloads
// over loopback TCP, named end-to-end metrics, and a separate traced run
// that yields per-layer metrics. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultSeconds is the measured window BENCHMARK.json's run_seconds names.
const defaultSeconds = 20

// traceDir is where a traced run leaves trace-<workload>.json, relative to
// the repository root the benchmark is run from.
const traceDir = "bench/results"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its result as the last line (the driver's mode); empty runs all four, each in its own subprocess")
		seed     = flag.Int64("seed", 1, "seed of the generated operation sequence")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		detail   = flag.Bool("detail", false, "with -workload: print the full result object, not only the driver's keys")
		out      = flag.String("out", "", "without -workload: write the full result set here as JSON")
		compare  = flag.Bool("compare", false, "compare two result sets: stackbench -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *workload != "":
		err = runOne(*workload, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *detail)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
}

// driverLine is the one JSON object the driver reads from the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
	Detail    *result                `json:"detail,omitempty"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(workload string, seed int64, window time.Duration, traced, detail bool) error {
	var res *result
	var err error
	specs := endToEndSpecs
	if traced {
		specs = perLayerSpecs
		res, err = runTraced(workload, seed, defaultParams(window), traceDir)
	} else {
		res, err = runUntraced(workload, seed, defaultParams(window))
	}
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	line := driverLine{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverValue{},
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok && !traced {
			return fmt.Errorf("%s produced no %s", workload, s.Name)
		}
		line.Metrics[s.Name] = driverValue{v, s.Unit}
	}
	if detail {
		line.Detail = res
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed verification", workload, res.Failed, res.Attempted)
	}
	return nil
}
