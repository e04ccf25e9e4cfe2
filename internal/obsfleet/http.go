package obsfleet

// The aggregator's own HTTP surface. /metrics serves obsd's self-series
// plus the fleet_ aggregates re-exposed from the last sweep, so one
// scrape of obsd answers for the whole stack.

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Surface describes obsd's HTTP surface: /metrics (obsd's own series,
// then the fleet_ aggregates of the last sweep), /healthz, /fleet/slo,
// /fleet/report (JSON, ?format=md for markdown), /fleet/trace/<traceID>,
// /fleet/query, /fleet/series, /fleet/budget, and /fleet/attribution.
func (a *Aggregator) Surface() obs.Surface {
	return obs.Surface{
		Component: "obsd", Now: a.clock.Now, Started: a.started,
		Metrics: a.SelfMetrics,
		Tail: []func(*strings.Builder){func(b *strings.Builder) {
			rows, types, help := fleetAggregate(a.Snapshot())
			writeFleet(b, rows, types, help)
		}},
		Routes: map[string]http.Handler{
			"/fleet/slo":         a.FleetSLOHandler(),
			"/fleet/report":      a.FleetReportHandler(),
			"/fleet/trace/":      a.FleetTraceHandler(),
			"/fleet/query":       a.FleetQueryHandler(),
			"/fleet/series":      a.FleetSeriesHandler(),
			"/fleet/budget":      a.FleetBudgetHandler(),
			"/fleet/attribution": a.FleetAttributionHandler(),
		},
	}
}

// QueryResponse is the /fleet/query document.
type QueryResponse struct {
	Expr    string        `json:"expr"`
	At      time.Time     `json:"at"`
	Window  string        `json:"window"`
	Results []tsdb.Result `json:"results"`
}

// FleetQueryHandler serves GET /fleet/query?expr=<fn(selector)>&window=
// <dur>[&at=<RFC3339>]: the expression evaluated over the trailing
// window ending at `at` (default: the aggregator's clock now — passing
// an explicit at makes queries reproducible on a virtual clock).
func (a *Aggregator) FleetQueryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		expr, err := tsdb.ParseExpr(q.Get("expr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		window := time.Hour
		if ws := q.Get("window"); ws != "" {
			window, err = time.ParseDuration(ws)
			if err != nil || window <= 0 {
				http.Error(w, "bad window (want a positive Go duration)", http.StatusBadRequest)
				return
			}
		}
		at := a.clock.Now()
		if ats := q.Get("at"); ats != "" {
			at, err = time.Parse(time.RFC3339, ats)
			if err != nil {
				http.Error(w, "bad at (want RFC3339)", http.StatusBadRequest)
				return
			}
		}
		results, err := a.store.Query(expr, at, window)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, QueryResponse{
			Expr: q.Get("expr"), At: at, Window: window.String(), Results: results,
		})
	})
}

// FleetSeriesHandler serves GET /fleet/series: the store's series
// inventory (no points) plus drop/refusal/reset accounting.
func (a *Aggregator) FleetSeriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, a.store.Inventory())
	})
}

// writeJSON renders one indented JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
