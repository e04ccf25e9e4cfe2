package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lbone"
	"repro/internal/stats"
)

// Rendering: every table and figure of the paper's evaluation as text.

// RenderLayout prints an exnode layout figure (Figures 5, 8, 15).
func RenderLayout(title string, r interface {
	layoutSegments() (int64, []stats.Segment)
}) string {
	size, segs := r.layoutSegments()
	return stats.SegmentMap(title, size, segs, 72)
}

func (r *Test1Result) layoutSegments() (int64, []stats.Segment) {
	return r.ExNode.Size, LayoutSegments(r.ExNode, nil)
}

func (r *Test2Result) layoutSegments() (int64, []stats.Segment) {
	return r.ExNode.Size, LayoutSegments(r.ExNode, nil)
}

func (r *Test3Result) layoutSegments() (int64, []stats.Segment) {
	deleted := map[int]bool{}
	for _, i := range test3DeleteIndices() {
		deleted[i] = true
	}
	return r.Full.Size, LayoutSegments(r.Full, deleted)
}

// RenderAvailabilityFigure prints a per-depot availability bar chart
// (Figures 6, 9, 10, 11, 16).
func RenderAvailabilityFigure(title string, a *AvailabilityStats) string {
	names, ratios := a.PerDepot()
	// Stable depot order for comparison with the paper's x axes.
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return names[idx[i]] < names[idx[j]] })
	sn := make([]string, len(idx))
	sr := make([]float64, len(idx))
	for i, j := range idx {
		sn[i], sr[i] = names[j], ratios[j]
	}
	return stats.BarChart(title+" (segment availability %)", sn, sr, 100, 50)
}

// RenderTest1 prints every Test 1 artifact.
func RenderTest1(r *Test1Result) string {
	var b strings.Builder
	b.WriteString(RenderLayout("Figure 5: Test 1 exnode — 5 copies, 27 segments", r))
	b.WriteString("\n")
	b.WriteString(RenderAvailabilityFigure("Figure 6: availability from UTK", r.Availability))
	min, max := r.Availability.MinMaxSegment()
	total := r.Availability.Overall
	fmt.Fprintf(&b, "\nChecks: %d rounds x %d segments = %d fragment checks; %d unavailable\n",
		r.Rounds, len(r.Availability.Segments), total.Total(), total.Fail)
	fmt.Fprintf(&b, "Overall segment availability: %.2f%% (paper: 95.18%%)\n", total.Ratio())
	fmt.Fprintf(&b, "Per-segment availability range: %.2f%% - %.2f%% (paper: 60.51%% - 100%%)\n", min, max)
	b.WriteString("\nFigure 7: one xnd_ls listing with unavailable segments marked -1:\n")
	b.WriteString(r.SampleList)
	return b.String()
}

// RenderSiteRun prints one vantage point's Test 2 artifacts.
func RenderSiteRun(figAvail, figPath string, run *SiteRun, fileSize int64) string {
	var b strings.Builder
	b.WriteString(RenderAvailabilityFigure(figAvail+": availability from "+run.Site.Name, run.Availability))
	fmt.Fprintf(&b, "Overall availability from %s: %.2f%%\n", run.Site.Name, run.Availability.Overall.Ratio())
	s := run.TimeSummary()
	fmt.Fprintf(&b, "Downloads: %d attempts, %d successes (%.2f%%)\n",
		run.Successes+run.Failures, run.Successes, run.SuccessRate())
	fmt.Fprintf(&b, "Download times (s): min %.2f avg %.2f median %.2f max %.2f\n",
		s.Min, s.Mean, s.Median, s.Max)
	// Extensions beyond the paper's summary stats: the full distribution
	// and the availability timeline (incidents appear as dips).
	h := stats.NewHistogram(stats.DurationsToSeconds(run.Times), 8)
	b.WriteString(h.Render("Download time distribution from "+run.Site.Name+" (seconds)", "s", 40))
	b.WriteString(stats.Sparkline("Availability over time from "+run.Site.Name+" (% per round)",
		run.Timeline, 0, 100, 72))
	b.WriteString(run.Path.RenderPath(figPath+": most common download path from "+run.Site.Name, fileSize, 72))
	return b.String()
}

// RenderTest2 prints every Test 2 artifact.
func RenderTest2(r *Test2Result) string {
	var b strings.Builder
	b.WriteString(RenderLayout("Figure 8: Test 2 exnode — 5 copies, 21 segments", r))
	figs := map[string][2]string{
		"UTK":     {"Figure 9", "Figure 12"},
		"UCSD":    {"Figure 10", "Figure 13"},
		"HARVARD": {"Figure 11", "Figure 14"},
	}
	for _, run := range r.Sites {
		f := figs[run.Site.Name]
		b.WriteString("\n")
		b.WriteString(RenderSiteRun(f[0], f[1], run, r.ExNode.Size))
	}
	return b.String()
}

// RenderTest3 prints every Test 3 artifact.
func RenderTest3(r *Test3Result) string {
	var b strings.Builder
	b.WriteString(RenderLayout("Figure 15: Test 3 exnode — 12 of 21 byte arrays deleted", r))
	b.WriteString("\n")
	b.WriteString(RenderAvailabilityFigure("Figure 16: availability from HARVARD", r.Run.Availability))
	fmt.Fprintf(&b, "Average segment availability: %.2f%% (paper: 92.93%%)\n", r.Run.Availability.Overall.Ratio())
	min, max := r.Run.Availability.MinMaxSegment()
	fmt.Fprintf(&b, "Per-fragment availability range: %.2f%% - %.2f%% (paper: 48.24%% - 100%%)\n", min, max)
	total := r.Run.Successes + r.Run.Failures
	fmt.Fprintf(&b, "Downloads: %d total, %d successes, %d failures (paper: 1225 total, 75 failures)\n",
		total, r.Run.Successes, r.Run.Failures)
	if r.FirstFail >= 0 {
		fmt.Fprintf(&b, "First failed download at round %d of %d (paper: 1,150 successes before the first failure)\n",
			r.FirstFail, r.Rounds)
	} else {
		b.WriteString("No download ever failed\n")
	}
	s := r.Run.TimeSummary()
	fmt.Fprintf(&b, "Successful download times (s): min %.2f avg %.2f median %.2f max %.2f (paper: min 3.85, avg 6.49, median 6.3)\n",
		s.Min, s.Mean, s.Median, s.Max)
	b.WriteString(stats.Sparkline("Availability over time from HARVARD (% per round; the final dip is the scripted joint outage)",
		r.Run.Timeline, 0, 100, 72))
	b.WriteString(r.Run.Path.RenderPath("Figure 17: most common download path from HARVARD", r.Trimmed.Size, 72))
	return b.String()
}

// RenderLBone prints the registry contents (paper Figure 2).
func RenderLBone(depots []lbone.DepotInfo) string {
	var b strings.Builder
	var total int64
	bySite := map[string][]string{}
	var sites []string
	for _, d := range depots {
		if _, ok := bySite[d.Site]; !ok {
			sites = append(sites, d.Site)
		}
		bySite[d.Site] = append(bySite[d.Site], d.Name)
		total += d.Capacity
	}
	sort.Strings(sites)
	fmt.Fprintf(&b, "Figure 2: The L-Bone — %d depots serving %.1f TB\n", len(depots), float64(total)/1e12)
	for _, s := range sites {
		names := bySite[s]
		sort.Strings(names)
		fmt.Fprintf(&b, "  %-10s %s\n", s, strings.Join(names, " "))
	}
	return b.String()
}
