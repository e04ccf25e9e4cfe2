package obsfleet

// Tail-latency attribution. Exemplars on scraped histogram buckets carry
// trace IDs for real operations; each sweep picks up the newly-seen IDs,
// joins their cross-daemon traces (the same assembly /fleet/trace
// serves), and decomposes every trace's wall time into per-layer busy
// time by interval union:
//
//	tool           — root DOWNLOAD/UPLOAD events on the client
//	core           — client-side spans (routing, planning)
//	transfer       — hedged-transfer entries
//	ibp            — client-observed IBP exchanges (includes the timeout
//	                 burned against a dead depot: obs.Event records wall
//	                 time for failures too)
//	depot-queue    — server-side time waiting in the depot's queue
//	depot-backend  — server-side time in the depot's storage backend
//
// Per-depot busy time is unioned from the client-observed exchanges
// against each depot, so "p99 traces spend their tail waiting on depot X"
// is a query answer (/fleet/attribution), not an archaeology project.

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ring"
	"repro/internal/stats"
)

const (
	maxAttrTraces   = 512 // per-trace records retained (ring)
	maxAttrSeen     = 4096
	maxAttrPerSweep = 8 // trace joins per sweep: the pass must not stall the sweep
)

// attrLayers is the fixed presentation order.
var attrLayers = []string{"tool", "core", "transfer", "ibp", "depot-queue", "depot-backend"}

// traceAttr is one trace's decomposition.
type traceAttr struct {
	Trace  string             `json:"trace"`
	Total  float64            `json:"total_seconds"` // wall extent of the joined trace
	Layers map[string]float64 `json:"layers"`        // layer -> busy seconds (interval union)
	Depots map[string]float64 `json:"depots"`        // depot -> busy seconds (interval union)
}

// attribution holds the bounded analysis state.
type attribution struct {
	mu   sync.Mutex
	seen map[string]bool    // trace IDs already joined
	fifo *ring.Ring[string] // seen's insertion order; evicts from seen
	recs *ring.Ring[traceAttr]
}

func newAttribution() *attribution {
	return &attribution{
		seen: make(map[string]bool),
		fifo: ring.New[string](maxAttrSeen),
		recs: ring.New[traceAttr](maxAttrTraces),
	}
}

// attributeSweep runs the attribution pass for one sweep: discover trace
// IDs from exemplar suffixes, join the first few new ones, decompose.
func (a *Aggregator) attributeSweep(view []*member) {
	if a.attr == nil {
		return
	}
	var fresh []string
	a.attr.mu.Lock()
	for _, m := range view {
		if m.scrape == nil {
			continue
		}
		for _, s := range m.scrape.samples {
			id := exemplarTraceID(s.exemplar)
			if id == "" || a.attr.seen[id] {
				continue
			}
			a.attr.note(id)
			if len(fresh) < maxAttrPerSweep {
				fresh = append(fresh, id)
			}
		}
	}
	a.attr.mu.Unlock()

	for _, id := range fresh {
		ft := a.AssembleTrace(id)
		rec := decompose(ft)
		if rec.Total <= 0 {
			continue
		}
		a.attr.mu.Lock()
		a.attr.recs.Push(rec)
		a.attr.mu.Unlock()
	}
}

// note marks a trace ID as processed, evicting oldest beyond the cap.
// Caller holds at.mu.
func (at *attribution) note(id string) {
	if at.fifo.Full() {
		delete(at.seen, at.fifo.At(0))
	}
	at.seen[id] = true
	at.fifo.Push(id)
}

// exemplarTraceID extracts the trace ID from a raw exemplar suffix
// (` # {trace_id="<id>"} value [ts]`), or "" when there is none.
func exemplarTraceID(ex string) string {
	i := strings.Index(ex, `trace_id="`)
	if i < 0 {
		return ""
	}
	rest := ex[i+len(`trace_id="`):]
	j := strings.IndexByte(rest, '"')
	if j <= 0 {
		return ""
	}
	return rest[:j]
}

// span intervals, for union arithmetic.
type ival struct{ start, end time.Time }

// unionSeconds merges overlapping intervals and sums the covered time.
func unionSeconds(ivs []ival) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total float64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if !iv.start.After(cur.end) {
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
			continue
		}
		total += cur.end.Sub(cur.start).Seconds()
		cur = iv
	}
	total += cur.end.Sub(cur.start).Seconds()
	return total
}

// decompose turns a joined trace into per-layer and per-depot busy time.
func decompose(ft FleetTrace) traceAttr {
	rec := traceAttr{
		Trace:  ft.Trace,
		Layers: map[string]float64{},
		Depots: map[string]float64{},
	}
	layerIvs := map[string][]ival{}
	depotIvs := map[string][]ival{}
	var first, last time.Time
	add := func(layer string, start time.Time, ns int64, depot string) {
		if ns <= 0 || start.IsZero() {
			return
		}
		end := start.Add(time.Duration(ns))
		layerIvs[layer] = append(layerIvs[layer], ival{start, end})
		if depot != "" {
			depotIvs[depot] = append(depotIvs[depot], ival{start, end})
		}
		if first.IsZero() || start.Before(first) {
			first = start
		}
		if end.After(last) {
			last = end
		}
	}
	for _, s := range ft.Spans {
		switch s.Kind {
		case "server-span":
			// The depot's own account of the exchange: queue wait, then
			// the backend. Per-depot time is attributed from the client
			// side below, so a dead depot (which serves no spans) still
			// shows up.
			add("depot-queue", s.Time, s.QueueNS, "")
			add("depot-backend", s.Time.Add(time.Duration(s.QueueNS)), s.BackendNS, "")
		case "hedge":
			add("transfer", s.Time, s.DurationNS, s.Depot)
		case "event":
			switch {
			case s.Verb == "EXTENT":
				// core's synthetic extent event: the wall time of the whole
				// ranked failover walk. It names the depot that finally
				// served the extent, but the time covers every attempt
				// before it too — core layer, no depot attribution (the
				// per-attempt exchange events below carry that truth).
				add("core", s.Time, s.DurationNS, "")
			case s.Depot == "":
				add("tool", s.Time, s.DurationNS, "")
			default:
				add("ibp", s.Time, s.DurationNS, s.Depot)
			}
		}
	}
	if first.IsZero() || !last.After(first) {
		return rec
	}
	rec.Total = last.Sub(first).Seconds()
	for layer, ivs := range layerIvs {
		rec.Layers[layer] = unionSeconds(ivs)
	}
	for depot, ivs := range depotIvs {
		rec.Depots[depot] = unionSeconds(ivs)
	}
	return rec
}

// LayerAttribution is one layer's share of trace wall time across the
// retained traces.
type LayerAttribution struct {
	Layer    string  `json:"layer"`
	Traces   int     `json:"traces"`    // traces where the layer appears
	P50Share float64 `json:"p50_share"` // median busy/total across traces
	P99Share float64 `json:"p99_share"`
}

// DepotAttribution is one depot's busy time across the retained traces.
type DepotAttribution struct {
	Depot      string  `json:"depot"`
	Traces     int     `json:"traces"`
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	P99Share   float64 `json:"p99_share"` // of the trace's wall time
}

// AttributionReport is the /fleet/attribution document.
type AttributionReport struct {
	Now    time.Time          `json:"now"`
	Traces int                `json:"traces"`
	Layers []LayerAttribution `json:"layers"`
	Depots []DepotAttribution `json:"depots"`
	Recent []traceAttr        `json:"recent,omitempty"` // newest few decompositions
}

// Attribution builds the report from the retained decompositions.
func (a *Aggregator) Attribution() AttributionReport {
	rep := AttributionReport{
		Now:    a.clock.Now(),
		Layers: []LayerAttribution{},
		Depots: []DepotAttribution{},
	}
	if a.attr == nil {
		return rep
	}
	a.attr.mu.Lock()
	recs := a.attr.recs.Last(nil, 0)
	a.attr.mu.Unlock()
	rep.Traces = len(recs)
	if len(recs) == 0 {
		return rep
	}

	layerShares := map[string][]float64{}
	depotSecs := map[string][]float64{}
	depotShares := map[string][]float64{}
	for _, r := range recs {
		for layer, busy := range r.Layers {
			layerShares[layer] = append(layerShares[layer], busy/r.Total)
		}
		for depot, busy := range r.Depots {
			depotSecs[depot] = append(depotSecs[depot], busy)
			depotShares[depot] = append(depotShares[depot], busy/r.Total)
		}
	}
	for _, layer := range attrLayers {
		shares := layerShares[layer]
		if len(shares) == 0 {
			continue
		}
		sort.Float64s(shares)
		rep.Layers = append(rep.Layers, LayerAttribution{
			Layer: layer, Traces: len(shares),
			P50Share: stats.Percentile(shares, 50),
			P99Share: stats.Percentile(shares, 99),
		})
	}
	depots := make([]string, 0, len(depotSecs))
	for d := range depotSecs {
		depots = append(depots, d)
	}
	sort.Strings(depots)
	for _, d := range depots {
		secs := depotSecs[d]
		shares := depotShares[d]
		sort.Float64s(secs)
		sort.Float64s(shares)
		rep.Depots = append(rep.Depots, DepotAttribution{
			Depot: d, Traces: len(secs),
			P50Seconds: stats.Percentile(secs, 50),
			P99Seconds: stats.Percentile(secs, 99),
			P99Share:   stats.Percentile(shares, 99),
		})
	}
	// Newest few decompositions, for operators chasing one incident.
	n := len(recs)
	if n > 8 {
		recs = recs[n-8:]
	}
	rep.Recent = recs
	return rep
}

// FleetAttributionHandler serves GET /fleet/attribution.
func (a *Aggregator) FleetAttributionHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, a.Attribution())
	})
}
