package obs

// Postmortem bundles: when a transfer fails, a tool exits non-zero, or a
// depot handler panics, the flight recorder's retained window is cut into
// one JSON document correlating the attempt timeline, server spans,
// health/breaker snapshots, and the NWS forecast vs measured bandwidth for
// every depot the operation touched. The bundle is written to disk
// (POSTMORTEM_<trace>.json) and served at /postmortem/<trace> on the
// metrics mux, so the failure story survives the process and the moment.
//
// The snapshot types here mirror (rather than import) the health and core
// report shapes: obs sits below both packages in the dependency order, so
// callers convert at the boundary.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// BreakerSnap is a point-in-time view of one depot's circuit breaker,
// converted from health.DepotHealth by the caller.
type BreakerSnap struct {
	Addr     string    `json:"addr"`
	State    string    `json:"state"`
	Score    float64   `json:"score"`
	Trips    int64     `json:"trips,omitempty"`
	Reclosed int64     `json:"reclosed,omitempty"`
	RetryAt  time.Time `json:"retry_at,omitempty"`
}

// BundleAttempt is one per-depot step of the failed operation's timeline,
// converted from a core transfer report by the caller.
type BundleAttempt struct {
	Depot      string    `json:"depot"`
	Verb       string    `json:"verb,omitempty"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Bytes      int64     `json:"bytes,omitempty"`
	Hedged     bool      `json:"hedged,omitempty"`
	Err        string    `json:"err,omitempty"`
}

// Bundle is one postmortem document.
type Bundle struct {
	Trace     string           `json:"trace,omitempty"`
	Reason    string           `json:"reason"` // "transfer-failure", "nonzero-exit", "panic", ...
	Component string           `json:"component,omitempty"`
	CreatedAt time.Time        `json:"created_at"`
	Err       string           `json:"err,omitempty"`
	Attempts  []BundleAttempt  `json:"attempts,omitempty"`
	Entries   []Entry          `json:"entries,omitempty"`
	Breakers  []BreakerSnap    `json:"breakers,omitempty"`
	Forecasts []ForecastSample `json:"forecasts,omitempty"`
	// RingDropped is the recorder's overflow count at cut time: how many
	// entries of the recent past were overwritten before this bundle could
	// retain them. Non-zero means the timeline starts mid-story.
	RingDropped uint64 `json:"ring_dropped,omitempty"`
}

// Depots lists the distinct depot addresses the bundle's attempts and
// entries touched.
func (b Bundle) Depots() map[string]bool {
	out := map[string]bool{}
	for _, a := range b.Attempts {
		if a.Depot != "" {
			out[a.Depot] = true
		}
	}
	for _, e := range b.Entries {
		if e.Depot != "" {
			out[e.Depot] = true
		}
	}
	return out
}

// StoreBundle retains the bundle in memory for /postmortem/<trace>,
// evicting the oldest once maxStoredBundles distinct traces are held.
func (fr *FlightRecorder) StoreBundle(b Bundle) {
	key := b.Trace
	if key == "" {
		key = fmt.Sprintf("untraced-%d", b.CreatedAt.UnixNano())
		b.Trace = key
	}
	fr.mu.Lock()
	if _, exists := fr.bundles[key]; !exists {
		if fr.order.Full() {
			delete(fr.bundles, fr.order.At(0))
		}
		fr.order.Push(key)
	}
	fr.bundles[key] = b
	fr.mu.Unlock()
}

// BundleFor returns the stored bundle for trace, if any.
func (fr *FlightRecorder) BundleFor(trace string) (Bundle, bool) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	b, ok := fr.bundles[trace]
	return b, ok
}

// Bundles lists the stored bundle traces, oldest first.
func (fr *FlightRecorder) Bundles() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.order.Last(nil, 0)
}

// WriteBundle serializes the bundle to dir/POSTMORTEM_<trace>.json
// (creating dir if needed) and returns the written path.
func WriteBundle(dir string, b Bundle) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := b.Trace
	if name == "" {
		name = fmt.Sprintf("at-%d", b.CreatedAt.UnixNano())
	}
	path := filepath.Join(dir, "POSTMORTEM_"+name+".json")
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ValidTraceID reports whether s looks like a trace ID our span contexts
// mint: 1–64 lowercase-hex characters. Handlers use it to distinguish a
// malformed request (400) from an unknown trace (404).
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// PostmortemHandler serves /postmortem/<trace>: 400 on a malformed ID,
// 404 when no bundle is stored and the recorder retains nothing for the
// trace, otherwise the stored bundle (or one synthesized on demand from
// the retained entries) as JSON.
func PostmortemHandler(fr *FlightRecorder, component string, now func() time.Time) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/postmortem/")
		if !ValidTraceID(id) {
			http.Error(w, "malformed trace id", http.StatusBadRequest)
			return
		}
		b, ok := fr.BundleFor(id)
		if !ok {
			entries := fr.ForTrace(id)
			if len(entries) == 0 {
				http.Error(w, "unknown trace", http.StatusNotFound)
				return
			}
			b = Bundle{
				Trace: id, Reason: "on-demand", Component: component,
				CreatedAt: now(), Entries: entries,
				RingDropped: fr.Dropped(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(b) //nolint:errcheck // client went away; nothing to do
	})
}
