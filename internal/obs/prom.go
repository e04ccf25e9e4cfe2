package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric is one sample in the Prometheus text exposition format (version
// 0.0.4), which this package hand-rolls: the repo is standard-library only.
type Metric struct {
	Name   string
	Help   string
	Type   string // "counter", "gauge", or "histogram"
	Value  float64
	Labels []Label
	Hist   *HistData // set (with Type "histogram") for _bucket/_sum/_count series
}

// number is any type a sample's value is kept in before exposition.
type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Counter is one counter sample.
func Counter[N number](name, help string, v N, labels ...Label) Metric {
	return Metric{Name: name, Help: help, Type: "counter", Value: float64(v), Labels: labels}
}

// Gauge is one gauge sample.
func Gauge[N number](name, help string, v N, labels ...Label) Metric {
	return Metric{Name: name, Help: help, Type: "gauge", Value: float64(v), Labels: labels}
}

// HistData carries one fixed-bound histogram sample: cumulative bucket
// counts per upper bound (the +Inf bucket is implied by Count), the sum of
// observations, and their number.
type HistData struct {
	Bounds []float64 // ascending upper bounds; len(Counts) == len(Bounds)
	Counts []uint64  // cumulative count of observations <= Bounds[i]
	Sum    float64
	Count  uint64
	// Exemplars, when set, carries one recent traced observation per
	// bucket: index i exemplifies Bounds[i], index len(Bounds) the +Inf
	// bucket. Zero-Trace slots have no exemplar. A p99 spike in a bucket
	// then points straight at a trace ID that can be assembled fleet-wide.
	Exemplars []Exemplar
}

// Exemplar is one traced observation attached to a histogram bucket,
// exposed in the OpenMetrics exemplar syntax ("# {trace_id=...} value ts").
type Exemplar struct {
	Trace string    // trace ID of the sampled operation ("" = no exemplar)
	Value float64   // the observed value (seconds for latency histograms)
	Time  time.Time // when the sample was observed
}

// BucketIndex returns the exemplar/bucket slot for an observation against
// bounds: the first bound admitting it, or len(bounds) for +Inf.
func BucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// DefLatencyBounds is the default latency bucket layout (seconds), spanning
// LAN round trips through WAN tail stalls.
var DefLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// NewHistData buckets samples into the given bounds.
func NewHistData(bounds, samples []float64) *HistData {
	h := &HistData{
		Bounds: bounds,
		Counts: make([]uint64, len(bounds)),
	}
	for _, s := range samples {
		h.Sum += s
		h.Count++
		// Cumulative: bump every bucket whose bound admits the sample.
		for i := len(bounds) - 1; i >= 0 && s <= bounds[i]; i-- {
			h.Counts[i]++
		}
	}
	return h
}

// Label is one name="value" pair on a metric sample.
type Label struct {
	Name  string
	Value string
}

// WriteMetrics renders samples in Prometheus text format. Samples sharing
// a name are grouped under one # HELP / # TYPE header pair; the first
// sample of each name supplies the header text.
func WriteMetrics(b *strings.Builder, ms []Metric) {
	byName := map[string][]Metric{}
	var order []string
	for _, m := range ms {
		if _, ok := byName[m.Name]; !ok {
			order = append(order, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range order {
		group := byName[name]
		if h := group[0].Help; h != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", name, h)
		}
		if t := group[0].Type; t != "" {
			fmt.Fprintf(b, "# TYPE %s %s\n", name, t)
		}
		for _, m := range group {
			if m.Hist != nil {
				writeHistSample(b, name, m)
				continue
			}
			b.WriteString(name)
			writeLabels(b, m.Labels, "", "")
			b.WriteByte(' ')
			b.WriteString(formatValue(m.Value))
			b.WriteByte('\n')
		}
	}
}

// writeLabels renders the {a="b",...} label block, optionally appending
// one extra pair (used for the histogram "le" label). Values use %q, which
// yields exactly the exposition-format escapes: backslash, quote, and \n.
func writeLabels(b *strings.Builder, labels []Label, extraName, extraValue string) {
	if len(labels) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", l.Name, l.Value)
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
}

// writeHistSample emits the conventional histogram series triple:
// name_bucket{...,le="<bound>"} rows (cumulative, ending at le="+Inf"),
// then name_sum and name_count. Buckets with an exemplar carry it as an
// OpenMetrics exemplar suffix: `# {trace_id="..."} value unix-seconds`.
func writeHistSample(b *strings.Builder, name string, m Metric) {
	h := m.Hist
	for i, bound := range h.Bounds {
		b.WriteString(name + "_bucket")
		writeLabels(b, m.Labels, "le", formatValue(bound))
		fmt.Fprintf(b, " %d", h.Counts[i])
		writeExemplar(b, h, i)
		b.WriteByte('\n')
	}
	b.WriteString(name + "_bucket")
	writeLabels(b, m.Labels, "le", "+Inf")
	fmt.Fprintf(b, " %d", h.Count)
	writeExemplar(b, h, len(h.Bounds))
	b.WriteByte('\n')
	b.WriteString(name + "_sum")
	writeLabels(b, m.Labels, "", "")
	fmt.Fprintf(b, " %s\n", formatValue(h.Sum))
	b.WriteString(name + "_count")
	writeLabels(b, m.Labels, "", "")
	fmt.Fprintf(b, " %d\n", h.Count)
}

// writeExemplar appends the exemplar suffix for bucket slot i, when one is
// retained.
func writeExemplar(b *strings.Builder, h *HistData, i int) {
	if i >= len(h.Exemplars) {
		return
	}
	ex := h.Exemplars[i]
	if ex.Trace == "" {
		return
	}
	fmt.Fprintf(b, " # {trace_id=%q} %s", ex.Trace, formatValue(ex.Value))
	if !ex.Time.IsZero() {
		fmt.Fprintf(b, " %s", formatValue(float64(ex.Time.UnixNano())/1e9))
	}
}

// formatValue renders a float the way Prometheus expects: integers
// without an exponent or trailing zeros.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ContentType is the exposition-format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves collect() in Prometheus text format. collect runs
// per request, so gauges are read live.
func MetricsHandler(collect func() []Metric) http.Handler {
	return expositionHandler(func() string {
		var b strings.Builder
		WriteMetrics(&b, collect())
		return b.String()
	})
}

// expositionHandler serves body() as an exposition-format page.
func expositionHandler(body func() string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, body())
	})
}

// HealthzHandler answers 200 "ok" while check returns nil, 503 with the
// error text otherwise. A nil check is always healthy.
func HealthzHandler(check func() error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if check != nil {
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unhealthy: %v\n", err)
				return
			}
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
}

// CollectorMetrics renders a Collector's aggregates as Prometheus samples
// (client-side view: one series per depot+verb).
func (c *Collector) CollectorMetrics(prefix string) []Metric {
	rows := c.Snapshot()
	var ms []Metric
	for _, r := range rows {
		depot, verb := Label{"depot", r.Depot}, Label{"verb", r.Verb}
		ms = append(ms,
			Counter(prefix+"ops_total", "IBP operations issued.", r.Count, depot, verb),
			Counter(prefix+"op_errors_total", "IBP operations that failed.", r.Errors, depot, verb),
			Counter(prefix+"op_bytes_total", "Payload bytes moved by successful operations.", r.Bytes, depot, verb),
			Counter(prefix+"op_conn_reuse_total", "Operations served on a pooled connection.", r.Reused, depot, verb),
			Gauge(prefix+"op_latency_seconds_p95", "95th-percentile operation latency over the retained window.", r.Latency.P95, depot, verb),
		)
	}
	for _, cell := range c.latencyCells() {
		h := NewHistData(DefLatencyBounds, cell.lat)
		h.Exemplars = cell.ex
		ms = append(ms, Metric{
			Name: prefix + "op_latency_seconds",
			Help: "Operation latency over the retained sample window.",
			Type: "histogram",
			Labels: []Label{
				{"depot", cell.depot}, {"verb", cell.verb},
			},
			Hist: h,
		})
	}
	ms = append(ms, RingDropped("events", c.Dropped()))
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// latencyCell is one (depot, verb) latency sample set snapshot.
type latencyCell struct {
	depot, verb string
	lat         []float64
	ex          []Exemplar
}

// latencyCells copies the retained latency samples per aggregation cell,
// sorted by depot then verb so exposition order is deterministic.
func (c *Collector) latencyCells() []latencyCell {
	c.mu.Lock()
	cells := make([]latencyCell, 0, len(c.agg))
	for k, a := range c.agg {
		cells = append(cells, latencyCell{
			depot: k.Depot, verb: k.Verb,
			lat: append([]float64(nil), a.lat.Values()...),
			ex:  append([]Exemplar(nil), a.ex...),
		})
	}
	c.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].depot != cells[j].depot {
			return cells[i].depot < cells[j].depot
		}
		return cells[i].verb < cells[j].verb
	})
	return cells
}
