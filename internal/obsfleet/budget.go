package obsfleet

// The error-budget ledger. Each member's SLO engine exposes lifetime
// slo_sli_good_total / slo_sli_bad_total counters; the sweep records
// them (member-labeled) into the time-series store, and the ledger
// integrates burn over any trailing window on the virtual clock: per
// objective, the fraction of the error budget consumed is slo.Burn over
// the good/bad increases in the window,
//
//	consumed = error_ratio / (1 - target),  error_ratio = bad / (good + bad)
//
// — the same function, over the same counters, as the member's own /slo.
// consumed > 1 means the objective's budget is spent — the soak fails
// (ROADMAP item 5: runs pass or fail on error-budget burn, not vibes).
// The ledger also reports the worst burn window: the consecutive-sweep
// step with the highest instantaneous burn rate, which is where an
// operator starts reading the timeline.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/slo"
	"repro/internal/tsdb"
)

// BudgetMember is one (member, key) ledger row inside an objective.
type BudgetMember struct {
	Member   string  `json:"member"`
	Key      string  `json:"key"`
	Good     float64 `json:"good"`     // good-event increase over the window
	Bad      float64 `json:"bad"`      // bad-event increase over the window
	Ratio    float64 `json:"ratio"`    // bad / (good + bad)
	Consumed float64 `json:"consumed"` // fraction of error budget spent
	Verdict  string  `json:"verdict"`  // pass | fail
}

// BurnWindow is the consecutive-sweep step with the highest burn.
type BurnWindow struct {
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	Burn float64   `json:"burn"` // error_ratio/(1-target) for just this step
}

// BudgetObjective is one objective's fleet-wide ledger.
type BudgetObjective struct {
	Name      string         `json:"name"`
	SLI       string         `json:"sli"`
	Target    float64        `json:"target"`
	Good      float64        `json:"good"`
	Bad       float64        `json:"bad"`
	Ratio     float64        `json:"ratio"`
	Consumed  float64        `json:"consumed"`  // fleet-wide fraction of budget spent
	Remaining float64        `json:"remaining"` // 1 - consumed, floored at 0
	Worst     *BurnWindow    `json:"worst_burn_window,omitempty"`
	Members   []BudgetMember `json:"members"`
	Verdict   string         `json:"verdict"` // pass | fail | no-data
}

// BudgetReport is the /fleet/budget document.
type BudgetReport struct {
	Now        time.Time         `json:"now"`
	Window     string            `json:"window"`
	Objectives []BudgetObjective `json:"objectives"`
	Verdict    string            `json:"verdict"` // fail if any objective fails
}

// FleetBudget integrates burn for every known objective over the
// trailing window ending at `at`.
func (a *Aggregator) FleetBudget(at time.Time, window time.Duration) BudgetReport {
	rep := BudgetReport{
		Now:        at,
		Window:     window.String(),
		Objectives: []BudgetObjective{},
		Verdict:    "pass",
	}
	for _, obj := range a.knownObjectives() {
		bo := a.budgetObjective(obj, at, window)
		if bo.Verdict == "fail" {
			rep.Verdict = "fail"
		}
		rep.Objectives = append(rep.Objectives, bo)
	}
	return rep
}

// knownObjectives collects the objectives the current fleet declares,
// deduplicated by name (every member runs the same config; first wins).
func (a *Aggregator) knownObjectives() []slo.ObjectiveStatus {
	seen := map[string]bool{}
	var out []slo.ObjectiveStatus
	for _, m := range a.Snapshot() {
		if m.slo == nil {
			continue
		}
		for _, o := range m.slo.Objectives {
			if !seen[o.Name] {
				seen[o.Name] = true
				out = append(out, o)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// budgetObjective builds one objective's ledger from the retained
// good/bad counter series.
func (a *Aggregator) budgetObjective(obj slo.ObjectiveStatus, at time.Time, window time.Duration) BudgetObjective {
	bo := BudgetObjective{
		Name: obj.Name, SLI: string(obj.SLI), Target: obj.Target,
		Members: []BudgetMember{}, Verdict: "no-data",
	}
	matchers := []tsdb.Label{{Name: "sli", Value: bo.SLI}}
	rows := map[[2]string]*BudgetMember{} // (member, key) -> increases
	for _, counter := range []string{"slo_sli_good_total", "slo_sli_bad_total"} {
		results, _ := a.store.Query(tsdb.Expr{Fn: "increase", Name: counter, Matchers: matchers}, at, window)
		for _, r := range results {
			var row BudgetMember
			for _, l := range r.Labels {
				switch l.Name {
				case "member":
					row.Member = l.Value
				case "key":
					row.Key = l.Value
				}
			}
			id := [2]string{row.Member, row.Key}
			if rows[id] == nil {
				rows[id] = &row
			}
			if counter == "slo_sli_bad_total" {
				rows[id].Bad += r.Value
			} else {
				rows[id].Good += r.Value
			}
		}
	}
	if len(rows) == 0 {
		return bo
	}
	for _, bm := range rows {
		if total := bm.Good + bm.Bad; total > 0 {
			bm.Ratio = bm.Bad / total
		}
		bm.Consumed = slo.Burn(bm.Good, bm.Bad, obj.Target)
		bm.Verdict = "pass"
		if bm.Consumed > 1 {
			bm.Verdict = "fail"
		}
		bo.Good += bm.Good
		bo.Bad += bm.Bad
		bo.Members = append(bo.Members, *bm)
	}
	sort.Slice(bo.Members, func(i, j int) bool {
		x, y := bo.Members[i], bo.Members[j]
		return x.Member < y.Member || x.Member == y.Member && x.Key < y.Key
	})
	if total := bo.Good + bo.Bad; total > 0 {
		bo.Ratio = bo.Bad / total
		bo.Consumed = slo.Burn(bo.Good, bo.Bad, obj.Target)
		bo.Verdict = "pass"
		if bo.Consumed > 1 {
			bo.Verdict = "fail"
		}
	}
	bo.Remaining = max(1-bo.Consumed, 0)
	bo.Worst = a.worstBurnWindow(bo, at, window)
	return bo
}

// worstBurnWindow walks consecutive sweep steps of the fleet-summed
// good/bad counters and reports the step with the highest burn.
func (a *Aggregator) worstBurnWindow(bo BudgetObjective, at time.Time, window time.Duration) *BurnWindow {
	matchers := []tsdb.Label{{Name: "sli", Value: bo.SLI}}
	type step struct{ good, bad float64 }
	steps := map[int64]*step{} // step end time (UnixNano) -> fleet sums
	var times []int64
	from := at.Add(-window)
	collect := func(name string, bad bool) {
		for _, v := range a.store.Select(name, matchers) {
			for _, d := range tsdb.Increases(v.Points) {
				if !d.T.After(from) || d.T.After(at) {
					continue
				}
				ns := d.T.UnixNano()
				s := steps[ns]
				if s == nil {
					s = &step{}
					steps[ns] = s
					times = append(times, ns)
				}
				if bad {
					s.bad += d.V
				} else {
					s.good += d.V
				}
			}
		}
	}
	collect("slo_sli_good_total", false)
	collect("slo_sli_bad_total", true)
	if len(times) == 0 {
		return nil
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var worst *BurnWindow
	prevT := from
	for _, ns := range times {
		s := steps[ns]
		end := time.Unix(0, ns).UTC()
		if s.good+s.bad > 0 {
			burn := slo.Burn(s.good, s.bad, bo.Target)
			if worst == nil || burn > worst.Burn {
				worst = &BurnWindow{From: prevT, To: end, Burn: burn}
			}
		}
		prevT = end
	}
	return worst
}

// FleetBudgetHandler serves GET /fleet/budget[?window=<dur>][&at=<RFC3339>].
// The window defaults to the store's full retention — "how is the soak
// doing" is the question the ledger exists to answer.
func (a *Aggregator) FleetBudgetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		window := a.store.Retention()
		if ws := q.Get("window"); ws != "" {
			var err error
			window, err = time.ParseDuration(ws)
			if err != nil || window <= 0 {
				http.Error(w, "bad window (want a positive Go duration)", http.StatusBadRequest)
				return
			}
		}
		at := a.clock.Now()
		if ats := q.Get("at"); ats != "" {
			var err error
			at, err = time.Parse(time.RFC3339, ats)
			if err != nil {
				http.Error(w, "bad at (want RFC3339)", http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, a.FleetBudget(at, window))
	})
}

// WriteBudget renders the ledger over the full retention window into
// path — obsd's shutdown flush (FLEET_budget.json) and the CI artifact
// both go through here.
func (a *Aggregator) WriteBudget(path string) error {
	rep := a.FleetBudget(a.clock.Now(), a.store.Retention())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write budget: %w", err)
	}
	return nil
}
