package tsdb

// The query layer: a deliberately small expression grammar —
//
//	expr     := fn "(" selector ")"
//	          | "quantile_over_time" "(" q "," selector ")"
//	fn       := "rate" | "increase" | "delta" | "avg_over_time" | "resets"
//	selector := name [ "{" label "=" "\"" value "\"" { "," ... } "}" ]
//
// evaluated over a trailing window ending at the query's reference time.
// Counter functions (rate, increase, resets) honor the reset detection
// done at ingest: a value going backwards inside the window contributes
// its post-reset value as fresh increase, never a negative delta.
//
// quantile_over_time has two shapes, sharing stats.HistogramQuantile with
// internal/slo:
//   - over plain series, it is the sample quantile of the retained values
//     in the window;
//   - over a histogram family (selector names the family and only
//     <family>_bucket series exist), it groups buckets by their non-le
//     labels, computes each bucket's counter increase over the window,
//     and interpolates inside the bucket the rank lands in — the fleet's
//     p99 over exactly the outage window, from the merged histograms.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// Expr is one parsed query expression.
type Expr struct {
	Fn       string  `json:"fn"`
	Q        float64 `json:"q,omitempty"` // quantile_over_time only
	Name     string  `json:"name"`
	Matchers []Label `json:"matchers,omitempty"`
}

// queryFns are the supported functions; the bool marks quantile arity.
var queryFns = map[string]bool{
	"rate": false, "increase": false, "delta": false,
	"avg_over_time": false, "resets": false,
	"quantile_over_time": true,
}

// ParseExpr parses `fn(selector)` / `quantile_over_time(q, selector)`.
func ParseExpr(in string) (Expr, error) {
	var e Expr
	s := strings.TrimSpace(in)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return e, fmt.Errorf("tsdb: want fn(selector), got %q", in)
	}
	e.Fn = strings.TrimSpace(s[:open])
	wantQ, ok := queryFns[e.Fn]
	if !ok {
		return e, fmt.Errorf("tsdb: unknown function %q (have rate, increase, delta, avg_over_time, resets, quantile_over_time)", e.Fn)
	}
	body := strings.TrimSpace(s[open+1 : len(s)-1])
	if wantQ {
		comma := strings.IndexByte(body, ',')
		if comma < 0 {
			return e, fmt.Errorf("tsdb: %s wants (q, selector)", e.Fn)
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(body[:comma]), 64)
		if err != nil {
			return e, fmt.Errorf("tsdb: bad quantile in %q: %v", in, err)
		}
		e.Q = q
		body = strings.TrimSpace(body[comma+1:])
	}
	name, matchers, err := parseSelector(body)
	if err != nil {
		return e, err
	}
	e.Name, e.Matchers = name, matchers
	return e, nil
}

// parseSelector parses name{a="b",c="d"}.
func parseSelector(s string) (string, []Label, error) {
	brace := strings.IndexByte(s, '{')
	if brace < 0 {
		if name := strings.TrimSpace(s); validName(name) {
			return name, nil, nil
		}
		return "", nil, fmt.Errorf("tsdb: bad series name %q", s)
	}
	name := strings.TrimSpace(s[:brace])
	if !validName(name) {
		return "", nil, fmt.Errorf("tsdb: bad series name %q", name)
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("tsdb: unterminated label block in %q", s)
	}
	var matchers []Label
	rest := strings.TrimSpace(s[brace+1 : len(s)-1])
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return "", nil, fmt.Errorf("tsdb: bad matcher in %q", s)
		}
		lname := strings.TrimSpace(rest[:eq])
		rest = strings.TrimSpace(rest[eq+1:])
		if rest == "" || rest[0] != '"' {
			return "", nil, fmt.Errorf("tsdb: matcher value must be quoted in %q", s)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", nil, fmt.Errorf("tsdb: unterminated matcher value in %q", s)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return "", nil, fmt.Errorf("tsdb: bad matcher value in %q: %v", s, err)
		}
		matchers = append(matchers, Label{Name: lname, Value: val})
		rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest[end+1:]), ","))
	}
	sort.SliceStable(matchers, func(i, j int) bool { return matchers[i].Name < matchers[j].Name })
	return name, matchers, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Result is one series' answer to a query.
type Result struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	Points int     `json:"points"` // samples the answer is computed from
	Resets uint64  `json:"resets"` // backward steps seen inside the window
}

// Query evaluates e over the window [to-window, to]. Windows longer than
// the store's retention are clamped to it — the rings cannot answer for
// more, and pretending otherwise would be a silent lie.
func (st *Store) Query(e Expr, to time.Time, window time.Duration) ([]Result, error) {
	if window <= 0 {
		return nil, fmt.Errorf("tsdb: non-positive window %v", window)
	}
	if window > st.cfg.Retention {
		window = st.cfg.Retention
	}
	from := to.Add(-window)

	if _, ok := queryFns[e.Fn]; !ok {
		return nil, fmt.Errorf("tsdb: unknown function %q", e.Fn)
	}

	views := st.Select(e.Name, e.Matchers)
	if e.Fn == "quantile_over_time" && len(views) == 0 {
		// Histogram shape: the selector names the family; buckets live in
		// <family>_bucket with an extra le label.
		if hist := st.histogramQuantile(e, from, to); hist != nil {
			return hist, nil
		}
	}

	out := make([]Result, 0, len(views))
	for _, v := range views {
		pts := clip(v.Points, from, to)
		r := Result{Name: v.Name, Labels: v.Labels, Points: len(pts), Resets: windowResets(pts)}
		var val float64
		switch e.Fn {
		case "rate":
			val = rate(pts)
		case "increase":
			val = Increase(pts)
		case "delta":
			val = delta(pts)
		case "avg_over_time":
			val = avgOverTime(pts)
		case "resets":
			val = float64(r.Resets)
		case "quantile_over_time":
			val = sampleQuantile(e.Q, pts)
		}
		if math.IsNaN(val) {
			continue // not enough data in the window for this series
		}
		r.Value = val
		out = append(out, r)
	}
	return out, nil
}

// histogramQuantile answers quantile_over_time over a histogram family:
// per group of non-le labels, each bucket's increase over the window
// feeds the shared interpolating estimator.
func (st *Store) histogramQuantile(e Expr, from, to time.Time) []Result {
	views := st.Select(e.Name+"_bucket", e.Matchers)
	if len(views) == 0 {
		return nil
	}
	type group struct {
		labels  []Label
		buckets []stats.HistBucket
		points  int
	}
	groups := map[string]*group{}
	var order []string
	for _, v := range views {
		le := math.NaN()
		rest := make([]Label, 0, len(v.Labels))
		for _, l := range v.Labels {
			if l.Name == "le" {
				le = parseLe(l.Value)
				continue
			}
			rest = append(rest, l)
		}
		if math.IsNaN(le) {
			continue // a _bucket series without le is not a histogram row
		}
		pts := clip(v.Points, from, to)
		inc := Increase(pts)
		if math.IsNaN(inc) {
			continue
		}
		k := SeriesKey(e.Name, rest)
		g := groups[k]
		if g == nil {
			g = &group{labels: rest}
			groups[k] = g
			order = append(order, k)
		}
		g.buckets = append(g.buckets, stats.HistBucket{Le: le, Count: inc})
		g.points += len(pts)
	}
	sort.Strings(order)
	var out []Result
	for _, k := range order {
		g := groups[k]
		sort.Slice(g.buckets, func(i, j int) bool { return g.buckets[i].Le < g.buckets[j].Le })
		val := stats.HistogramQuantile(e.Q, g.buckets)
		if math.IsNaN(val) {
			continue
		}
		out = append(out, Result{Name: e.Name, Labels: g.labels, Value: val, Points: g.points})
	}
	return out
}

func parseLe(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// clip returns the points with from <= T <= to, oldest first. The window
// is inclusive on both ends so a query pinned exactly to an incident's
// boundaries ([outage_start, outage_end]) keeps the boundary sample and
// with it the first post-onset counter delta.
func clip(pts []Point, from, to time.Time) []Point {
	lo := sort.Search(len(pts), func(i int) bool { return !pts[i].T.Before(from) })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T.After(to) })
	return pts[lo:hi]
}

// Increases returns the counter's growth between consecutive points,
// each stamped at the later point's time. A value going backwards is a
// reset (the daemon restarted): the post-reset value is all new increase.
// This is the store's one reset rule; Increase and every per-step reader
// of a counter go through it.
func Increases(pts []Point) []Point {
	out := make([]Point, 0, max(len(pts)-1, 0))
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: d})
	}
	return out
}

// Increase sums the counter's growth across pts. Fewer than two points
// cannot witness any growth: NaN.
func Increase(pts []Point) float64 {
	if len(pts) < 2 {
		return math.NaN()
	}
	var sum float64
	for _, d := range Increases(pts) {
		sum += d.V
	}
	return sum
}

// rate is Increase per second of covered time.
func rate(pts []Point) float64 {
	inc := Increase(pts)
	if math.IsNaN(inc) {
		return math.NaN()
	}
	dt := pts[len(pts)-1].T.Sub(pts[0].T).Seconds()
	if dt <= 0 {
		return math.NaN()
	}
	return inc / dt
}

// delta is the gauge difference last-first (resets are meaningless for
// gauges, so none of the counter logic applies).
func delta(pts []Point) float64 {
	if len(pts) < 2 {
		return math.NaN()
	}
	return pts[len(pts)-1].V - pts[0].V
}

func avgOverTime(pts []Point) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

// sampleQuantile is the plain-series quantile of the retained values.
func sampleQuantile(q float64, pts []Point) float64 {
	if len(pts) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.V
	}
	sort.Float64s(vals)
	return stats.Percentile(vals, q*100)
}

// windowResets counts backward steps inside the clipped window (the
// per-series lifetime counter lives on SeriesView.Resets).
func windowResets(pts []Point) uint64 {
	var n uint64
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V {
			n++
		}
	}
	return n
}
