package main

import "fmt"

// contrastCheck asserts, from measured data, the design intent behind the
// workload set: each layer does its work on the workload meant to stress
// it and none on the one meant to bypass it. A later optimisation's "no
// change expected on workload X" rests on these holding.
func contrastCheck(set *resultSet) []error {
	var errs []error
	traced := func(workload string) map[string]float64 {
		if r := set.find(workload, true); r != nil {
			return r.Metrics
		}
		errs = append(errs, fmt.Errorf("no traced run of %s", workload))
		return map[string]float64{}
	}
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	bulk, small, degraded, repair := traced(wlBulkBare), traced(wlSmallNamed), traced(wlDegradedFull), traced(wlRepairForeground)
	if len(errs) > 0 {
		return errs
	}

	// Fault handling, coding and observers: nothing on bulk_bare, at work
	// on degraded_full.
	for _, name := range []string{
		"core.coded_extent_frac", "core.failovers_per_download", "transfer.hedges_per_download",
		"obs.events_per_user_op", "health.circuit_open_verb_frac",
	} {
		expect(bulk[name] == 0, "%s is %g on %s, want exactly 0", name, bulk[name], wlBulkBare)
		expect(degraded[name] > 0, "%s is 0 on %s, want it at work", name, wlDegradedFull)
	}
	expect(bulk["ibp.failed_verb_frac"] == 0, "ibp.failed_verb_frac is %g on %s, want 0", bulk["ibp.failed_verb_frac"], wlBulkBare)

	// The directory: a fifth of the operation or more on small_named, no
	// part of bulk_bare.
	expect(small["registry.share_of_op"] >= 0.20, "registry.share_of_op is %.3f on %s, want >= 0.20", small["registry.share_of_op"], wlSmallNamed)
	expect(bulk["registry.share_of_op"] == 0, "registry.share_of_op is %g on %s, want 0", bulk["registry.share_of_op"], wlBulkBare)

	// bulk_bare moves bytes: most of a call is inside IBP verbs.
	expect(bulk["ibp.busy_frac"] >= 0.6, "ibp.busy_frac is %.3f on %s, want >= 0.6", bulk["ibp.busy_frac"], wlBulkBare)
	expect(small["ibp.busy_frac"] < bulk["ibp.busy_frac"], "ibp.busy_frac on %s (%.3f) is not below %s (%.3f)",
		wlSmallNamed, small["ibp.busy_frac"], wlBulkBare, bulk["ibp.busy_frac"])

	// The repair daemon runs on repair_foreground only.
	expect(repair["repaird.verbs_per_pass"] > 0, "repaird.verbs_per_pass is 0 on %s", wlRepairForeground)
	for _, m := range []map[string]float64{bulk, small, degraded} {
		expect(m["repaird.verbs_per_pass"] == 0, "repaird.verbs_per_pass is %g off %s, want 0", m["repaird.verbs_per_pass"], wlRepairForeground)
	}
	return errs
}
