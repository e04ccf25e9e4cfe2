package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's value in the candidate set against the
// baseline's. worse is how far the candidate fell behind, as a share of
// the baseline (or as a plain difference under an absolute bound); spread
// is the wider of the two runs' own spreads. A metric is worse when it
// fell behind by more than its bound and by more than the spread, and
// unresolved when the spread alone exceeds the bound: then the runs
// cannot tell a regression of the size the bound forbids from noise.
func judge(spec metricSpec, base, cand, spread float64) (verdict, float64) {
	worse := cand - base
	if spec.Better == higher {
		worse = base - cand
	}
	if !spec.absolute {
		if base == 0 {
			return verdictUnresolved, 0
		}
		worse /= math.Abs(base)
	}
	switch {
	case worse > spec.Bound && worse > spread:
		return verdictWorse, worse
	case spread > spec.Bound:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints one row per (end-to-end metric, workload) pair and
// returns how many were worse and how many unresolved. A metric a
// workload does not have in either set has no row.
func compareSets(w io.Writer, base, cand *resultSet) (worse, unresolved int) {
	specs := append(append([]metricSpec(nil), endToEndSpecs...), extraSpecs...)
	fmt.Fprintf(w, "%-18s %-28s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "baseline", "candidate", "change", "bound", "spread", "verdict")
	for _, wl := range workloadSpecs {
		a, b := base.find(wl.Name, false), cand.find(wl.Name, false)
		if a == nil || b == nil {
			continue
		}
		for _, spec := range specs {
			va, okA := a.Metrics[spec.Name]
			vb, okB := b.Metrics[spec.Name]
			if !okA && !okB {
				continue
			}
			if okA != okB {
				fmt.Fprintf(w, "%-18s %-28s present in one set only  %s\n", wl.Name, spec.Name, verdictUnresolved)
				unresolved++
				continue
			}
			spread := math.Max(a.Spread[spec.Name], b.Spread[spec.Name])
			v, change := judge(spec, va, vb, spread)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-28s %12.4f %12.4f %+8.1f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, spec.Name, va, vb, pct(spec, change), pct(spec, spec.Bound), 100*spread, v)
		}
	}
	return worse, unresolved
}

// pct shows a share as a percentage and an absolute difference as it is.
func pct(spec metricSpec, v float64) float64 {
	if spec.absolute {
		return v
	}
	return 100 * v
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: stackbench -compare baseline.json candidate.json")
	}
	base, err := loadSet(args[0])
	if err != nil {
		return err
	}
	cand, err := loadSet(args[1])
	if err != nil {
		return err
	}
	worse, unresolved := compareSets(os.Stdout, base, cand)
	fmt.Printf("%d worse, %d unresolved (change is how far the candidate fell behind; negative is better)\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}
