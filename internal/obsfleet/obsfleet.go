// Package obsfleet is the fleet observability plane: the obsd aggregator
// that turns a stack of per-daemon control endpoints into one pane of
// glass. Every daemon in the stack (depots, registry replicas,
// maintenance shards, monitors, tool surrogates) already serves
// /metrics, /healthz, /slo, /trace/ and /postmortem/ on its ObsMux; what
// was missing is the layer that knows where they all are and joins what
// they say.
//
// Discovery rides the L-Bone (internal/lbone): daemons self-register
// their control address with CREGISTER, and the aggregator re-lists the
// control table every sweep — a daemon that dies stops heartbeating and
// ages out of the view exactly like a depot does. Each sweep scrapes
// every member's /metrics (parsing the hand-rolled Prometheus text
// format, exemplars included) and /slo, re-exposes fleet-level
// aggregates under a fleet_ prefix, serves a joined SLO view at
// /fleet/slo and an operator report at /fleet/report, assembles
// cross-daemon traces at /fleet/trace/<id>, and — when a member's
// burn-rate alert transitions to firing — captures CPU and heap
// profiles from that member's pprof surface while the incident is
// still hot.
package obsfleet

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/tsdb"
	"repro/internal/vclock"
)

// ControlSource lists the fleet's registered control endpoints.
// *registry.QuorumClient satisfies it.
type ControlSource interface {
	ListControls() ([]lbone.ControlInfo, error)
}

// Config parameterizes an Aggregator.
type Config struct {
	// Source discovers members through the L-Bone control table
	// (optional when Static covers the fleet).
	Source ControlSource
	// Static is a fixed member list merged with Source's results —
	// tests and single-host setups skip the registry entirely.
	Static []lbone.ControlInfo
	// Interval is Run's sweep cadence (default 15s).
	Interval time.Duration
	// Clock drives sweep timing and report stamps (default: real time).
	Clock vclock.Clock
	// Client performs the scrape and fan-out HTTP requests (default: a
	// client with ScrapeTimeout).
	Client *http.Client
	// ScrapeTimeout bounds each member request (default 10s).
	ScrapeTimeout time.Duration
	// ProfileDir, when set, enables alert-triggered profiling: the first
	// sweep that sees a member's burn-rate alert firing captures that
	// member's pprof profiles into this directory, next to wherever the
	// operator keeps postmortem bundles.
	ProfileDir string
	// CPUProfileSeconds is the /debug/pprof/profile capture length
	// (default 0: heap only — CPU capture blocks the sweep for its
	// duration, so it is opt-in).
	CPUProfileSeconds int
	// Retention clamps the fleet time-series store's query windows
	// (default 24h); each sweep appends one sample per retained series.
	Retention time.Duration
	// Logger (default: discard).
	Logger *slog.Logger
}

// member is the aggregator's view of one control endpoint.
type member struct {
	info       lbone.ControlInfo
	up         bool
	lastErr    string
	lastScrape time.Time
	scrape     *scrapeResult
	slo        *slo.Status
	firing     map[string]bool // alert key -> firing, for edge detection
}

// Aggregator scrapes the fleet and serves the joined view. Sweep is
// safe to call concurrently with the HTTP handlers.
type Aggregator struct {
	cfg     Config
	clock   vclock.Clock
	client  *http.Client
	started time.Time
	store   *tsdb.Store

	mu         sync.Mutex
	members    map[string]*member // by control address
	sweeps     uint64
	scrapes    uint64
	scrapeErrs uint64
	listErrs   uint64
	profiles   []CapturedProfile
	profileSeq uint64
	uptime     map[string]float64 // member addr -> last process_uptime_seconds
	restarts   map[string]uint64  // member addr -> restarts detected
	attr       *attribution
}

// New builds an Aggregator.
func New(cfg Config) *Aggregator {
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Second
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.ScrapeTimeout}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	return &Aggregator{
		cfg:      cfg,
		clock:    cfg.Clock,
		client:   cfg.Client,
		started:  cfg.Clock.Now(),
		store:    tsdb.New(tsdb.Config{Retention: cfg.Retention}),
		members:  make(map[string]*member),
		uptime:   make(map[string]float64),
		restarts: make(map[string]uint64),
		attr:     newAttribution(),
	}
}

// Store exposes the fleet time-series store (read-only use: queries and
// the budget ledger both go through it).
func (a *Aggregator) Store() *tsdb.Store { return a.store }

// Run sweeps on the configured interval until stop closes. The clock is
// injected, so a virtual-time harness drives cadence deterministically.
func (a *Aggregator) Run(stop <-chan struct{}) {
	for {
		a.Sweep()
		select {
		case <-stop:
			return
		case <-a.clock.After(a.cfg.Interval):
		}
	}
}

// Sweep discovers the current member set, scrapes every member's
// /metrics and /slo, and fires profile capture on alert transitions.
// Exported so deterministic harnesses (obsd-smoke) drive sweeps at
// chosen virtual-time points instead of racing a background loop.
func (a *Aggregator) Sweep() {
	infos := a.discover()

	// Scrape outside the lock; handlers keep serving the previous view.
	fresh := make(map[string]*member, len(infos))
	for _, info := range infos {
		m := a.scrapeMember(info)
		fresh[info.Addr] = m
		a.mu.Lock()
		a.scrapes++
		if !m.up {
			a.scrapeErrs++
		}
		a.mu.Unlock()
	}

	// Alert edge detection against the previous sweep's view.
	var fired []struct {
		m   *member
		key string
	}
	a.mu.Lock()
	for addr, m := range fresh {
		prev := a.members[addr]
		for key := range m.firing {
			if prev == nil || !prev.firing[key] {
				fired = append(fired, struct {
					m   *member
					key string
				}{m, key})
			}
		}
	}
	a.members = fresh
	a.sweeps++
	a.mu.Unlock()

	sort.Slice(fired, func(i, j int) bool {
		if fired[i].m.info.Addr != fired[j].m.info.Addr {
			return fired[i].m.info.Addr < fired[j].m.info.Addr
		}
		return fired[i].key < fired[j].key
	})
	for _, f := range fired {
		a.captureProfiles(f.m, f.key)
	}

	// Persist this sweep into the time-series store and run the
	// tail-latency attribution pass over any newly sampled traces.
	view := make([]*member, 0, len(fresh))
	for _, m := range fresh {
		view = append(view, m)
	}
	sort.Slice(view, func(i, j int) bool { return view[i].info.Addr < view[j].info.Addr })
	a.record(a.clock.Now(), view)
	a.attributeSweep(view)
}

// discover merges the registry's control table with the static member
// list, deduplicated by address (static wins: it is the operator's
// explicit word).
func (a *Aggregator) discover() []lbone.ControlInfo {
	byAddr := map[string]lbone.ControlInfo{}
	if a.cfg.Source != nil {
		listed, err := a.cfg.Source.ListControls()
		if err != nil {
			a.mu.Lock()
			a.listErrs++
			a.mu.Unlock()
			a.cfg.Logger.Warn("control listing failed", "err", err)
			// Fall back to the previous member set so one registry blip
			// does not blank the whole fleet view.
			a.mu.Lock()
			for addr, m := range a.members {
				byAddr[addr] = m.info
			}
			a.mu.Unlock()
		}
		for _, ci := range listed {
			byAddr[ci.Addr] = ci
		}
	}
	for _, ci := range a.cfg.Static {
		byAddr[ci.Addr] = ci
	}
	out := make([]lbone.ControlInfo, 0, len(byAddr))
	for _, ci := range byAddr {
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// scrapeMember fetches one member's /metrics and /slo.
func (a *Aggregator) scrapeMember(info lbone.ControlInfo) *member {
	m := &member{info: info, firing: map[string]bool{}}
	body, err := a.get(info.Addr, "/metrics")
	if err != nil {
		m.lastErr = err.Error()
		a.cfg.Logger.Warn("scrape failed", "member", info.Addr, "err", err)
		return m
	}
	sr, err := parseExposition(string(body))
	if err != nil {
		m.lastErr = fmt.Sprintf("parse /metrics: %v", err)
		return m
	}
	dropAggregatorFamilies(sr)
	m.up = true
	m.scrape = sr
	m.lastScrape = a.clock.Now()

	// /slo is optional — not every daemon carries an SLO engine.
	if st, err := getJSON[slo.Status](a, info.Addr, "/slo"); err == nil {
		m.slo = st
		for _, al := range st.Alerts {
			if al.Firing {
				m.firing[alertKey(al)] = true
			}
		}
	}
	return m
}

// dropAggregatorFamilies strips fleet_-prefixed families from a scrape.
// obsd announces its own control endpoint (operators should see it in
// CLIST), so an aggregator ends up scraping itself — and any fleet_ row
// it re-ingested would be re-exposed with one more fleet_ prefix next
// sweep, compounding into unbounded series growth. The fleet_ namespace
// belongs to aggregators alone; member truth never carries it.
func dropAggregatorFamilies(sr *scrapeResult) {
	kept := sr.samples[:0]
	for _, s := range sr.samples {
		if !strings.HasPrefix(s.name, "fleet_") {
			kept = append(kept, s)
		}
	}
	sr.samples = kept
	for name := range sr.types {
		if strings.HasPrefix(name, "fleet_") {
			delete(sr.types, name)
		}
	}
	for name := range sr.help {
		if strings.HasPrefix(name, "fleet_") {
			delete(sr.help, name)
		}
	}
}

// alertKey identifies one burn-rate rule instance across sweeps.
func alertKey(al slo.Alert) string {
	return al.Objective + "/" + al.Rule + "/" + al.Key
}

// get fetches a member path, returning the body on HTTP 200.
func (a *Aggregator) get(addr, path string) ([]byte, error) {
	resp, err := a.client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &httpStatusError{status: resp.StatusCode, body: string(body)}
	}
	return body, nil
}

// httpStatusError carries a non-200 member answer; the trace assembler
// distinguishes "member said 404" from "member unreachable" with it.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("http %d", e.status)
}

// Snapshot returns the current member views, address-sorted.
func (a *Aggregator) Snapshot() []*member {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*member, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.Addr < out[j].info.Addr })
	return out
}

// SelfMetrics renders the aggregator's own activity as Prometheus
// samples (the obsd daemon is a fleet member too).
func (a *Aggregator) SelfMetrics() []obs.Metric {
	a.mu.Lock()
	sweeps, scrapes, scrapeErrs, listErrs := a.sweeps, a.scrapes, a.scrapeErrs, a.listErrs
	profiles := len(a.profiles)
	members := make([]*member, 0, len(a.members))
	for _, m := range a.members {
		members = append(members, m)
	}
	restarts := make(map[string]uint64, len(a.restarts))
	for addr, n := range a.restarts {
		restarts[addr] = n
	}
	a.mu.Unlock()
	sort.Slice(members, func(i, j int) bool { return members[i].info.Addr < members[j].info.Addr })

	ms := []obs.Metric{
		obs.Counter("obsd_sweeps_total", "Completed fleet sweeps.", sweeps),
		obs.Counter("obsd_scrapes_total", "Member scrape attempts.", scrapes),
		obs.Counter("obsd_scrape_errors_total", "Member scrapes that failed.", scrapeErrs),
		obs.Counter("obsd_list_errors_total", "Control-table listings that failed.", listErrs),
		obs.Gauge("obsd_members", "Members in the current fleet view.", len(members)),
		obs.Counter("obsd_profiles_captured_total", "Alert-triggered pprof captures.", profiles),
	}
	for _, m := range members {
		up := 0
		if m.up {
			up = 1
		}
		ms = append(ms, obs.Gauge("obsd_member_up", "1 while the member answered its most recent scrape.", up,
			obs.Label{Name: "member", Value: m.info.Addr}, obs.Label{Name: "component", Value: m.info.Component}))
	}
	addrs := make([]string, 0, len(restarts))
	for addr := range restarts {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		ms = append(ms, obs.Counter("fleet_member_restarts_total",
			"Member process restarts detected by the aggregator (process_uptime_seconds went backwards).",
			restarts[addr], obs.Label{Name: "member", Value: addr}))
	}
	return ms
}
