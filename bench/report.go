package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// timingSamples names, for each timing metric, the sample count behind it.
func timingSamples(name string) string {
	switch {
	case strings.HasPrefix(name, "download_"):
		return opDownload.String()
	case strings.HasPrefix(name, "upload_"):
		return opUpload.String()
	case strings.HasPrefix(name, "repair_"):
		return "repair_cycle"
	}
	return ""
}

// printResult lists every metric of one run by name, with its unit and,
// for timings, the number of samples it rests on. A percentile is taken in
// each window slice, so one with fewer than ten samples beyond it in the
// thinnest slice is marked: it is reported, because the driver wants every
// metric on every run, but it is not to be trusted.
func printResult(w io.Writer, r *result) {
	specs := specByName(endToEndSpecs)
	kind := "end-to-end, tracing off"
	if r.Traced {
		specs = specByName(perLayerSpecs)
		kind = "per-layer, traced run"
	}
	for _, x := range extraSpecs {
		specs[x.Name] = x
	}
	fmt.Fprintf(w, "# %s seed %d: %s; %d operations attempted, %d failed; op sequence %s\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.OpsHash)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-48s %14.4f %-6s", n, r.Metrics[n], specs[n].Unit)
		if key := timingSamples(n); key != "" && !r.Traced {
			line += fmt.Sprintf(" n=%d", r.Samples[key])
			if thinnest, ok := r.Samples[key+sliceMinSuffix]; ok {
				line += fmt.Sprintf(" (>= %d per slice)", thinnest)
				if strings.Contains(n, "_p90_") && highestSupported(thinnest) < 90 {
					line += " fewer than 10 samples beyond p90 in a slice"
				}
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
}
