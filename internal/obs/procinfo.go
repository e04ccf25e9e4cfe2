package obs

// Process identity metrics: build_info and process_uptime_seconds on every
// daemon's Surface, so a fleet aggregator can tell members and versions apart
// from the scrape alone. Uptime is clock-injected — a daemon running on a
// virtual clock reports virtual uptime, keeping simulated fleet studies
// deterministic.

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// buildVersion resolves the module version and VCS revision once; the
// binary's build info never changes after link time.
var buildVersion = sync.OnceValues(func() (version, revision string) {
	version, revision = "unknown", ""
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return version, revision
})

// ProcessMetrics renders the process identity pair every daemon exposes:
// a constant build_info gauge (component, version, revision, go_version
// labels) and process_uptime_seconds measured on the caller's clock from
// start. A nil now falls back to wall time.
func ProcessMetrics(component string, now func() time.Time, start time.Time) []Metric {
	version, revision := buildVersion()
	labels := []Label{
		{"component", component},
		{"version", version},
		{"go_version", runtime.Version()},
	}
	if revision != "" {
		labels = append(labels, Label{"revision", revision})
	}
	uptime := 0.0
	if !start.IsZero() {
		t := time.Now()
		if now != nil {
			t = now()
		}
		if d := t.Sub(start); d > 0 {
			uptime = d.Seconds()
		}
	}
	return []Metric{
		Gauge("build_info", "Constant 1; build identity in the labels.", 1, labels...),
		Gauge("process_uptime_seconds", "Seconds since the daemon started, on its own (possibly virtual) clock.",
			uptime, Label{"component", component}),
	}
}
