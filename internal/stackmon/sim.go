package stackmon

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/slo"
	"repro/internal/testbed"
)

// The simulated study: a testbed fleet with scripted outage windows,
// swept by a Monitor on the testbed's virtual clock. A 24-hour study
// completes in well under a second of wall time, and because the outage
// schedule is explicit the expected availability of every depot is
// computable exactly — which is what the acceptance test checks the
// monitor against.

// SimOutage scripts one depot outage as offsets from the study start.
type SimOutage struct {
	Depot    string        // depot name (must match a SimConfig.Depots entry)
	From, To time.Duration // half-open window [From, To)
}

// SimConfig parameterizes a simulated study.
type SimConfig struct {
	// Depots names the simulated depots (default: the paper's 14-depot
	// L-Bone set, SimDepots(14)).
	Depots []string
	// Outages is the scripted fault schedule.
	Outages []SimOutage
	// Duration is the virtual study length (default 24h).
	Duration time.Duration
	// Interval between sweeps (default 5m).
	Interval time.Duration
	// Payload is the data round's size in bytes (0 = probe-only), as in
	// Config.
	Payload int
	// Seed drives link jitter deterministically.
	Seed int64
	// Logger receives depot state transitions (default: discard).
	Logger *slog.Logger
	// Objectives, when non-empty, attaches an SLO engine (on the study's
	// virtual clock) fed from every sweep; RunSim returns it so callers
	// can line alert firings up against the outage schedule.
	Objectives []slo.Objective
}

// SimDepots returns n simulated depot names, D01, D02, ….
func SimDepots(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("D%02d", i+1)
	}
	return out
}

// ExpectedAvailability computes, per depot name, the fraction of sweep
// instants at which the depot is up under the scripted schedule — the
// ground truth the Monitor's measured availability must match.
func (cfg SimConfig) ExpectedAvailability() map[string]float64 {
	depots, duration, interval := cfg.withDefaults()
	out := map[string]float64{}
	for _, name := range depots {
		up, total := 0, 0
		for off := time.Duration(0); off < duration; off += interval {
			total++
			down := false
			for _, o := range cfg.Outages {
				if o.Depot == name && off >= o.From && off < o.To {
					down = true
					break
				}
			}
			if !down {
				up++
			}
		}
		out[name] = float64(up) / float64(total)
	}
	return out
}

func (cfg SimConfig) withDefaults() (depots []string, duration, interval time.Duration) {
	depots = cfg.Depots
	if len(depots) == 0 {
		depots = SimDepots(14)
	}
	duration = cfg.Duration
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	interval = cfg.Interval
	if interval <= 0 {
		interval = DefInterval
	}
	return depots, duration, interval
}

// RunSim executes the simulated study to completion. It returns the final
// snapshot (sample detail included), the name→address mapping so callers
// can translate report rows back to depot names, and the study's SLO
// engine (nil unless cfg.Objectives is set), whose firings are the
// study's alert verdicts, evaluated sweep by sweep on the virtual clock.
func RunSim(cfg SimConfig) (Study, map[string]string, *slo.Engine, error) {
	depots, duration, interval := cfg.withDefaults()
	// Each depot is a site of its own, so the monitor reaches every one
	// over the default link and no local link is ever used.
	specs := make([]testbed.Spec, len(depots))
	for i, name := range depots {
		var wins []faultnet.Window
		for _, o := range cfg.Outages {
			if o.Depot == name {
				wins = append(wins, faultnet.Window{From: testbed.Start.Add(o.From), To: testbed.Start.Add(o.To)})
			}
		}
		specs[i] = testbed.Spec{Name: name, Site: geo.Site{Name: name}}
		if len(wins) > 0 {
			specs[i].Avail = faultnet.Windows{Down: wins}
		}
	}
	tb, err := testbed.New(cfg.Seed, specs...)
	if err != nil {
		return Study{}, nil, nil, fmt.Errorf("stackmon: %w", err)
	}
	defer tb.Close()
	clk := tb.Clock
	tb.Model.SetDefaultLink(faultnet.Link{RTT: 60 * time.Millisecond, Mbps: 4, JitterFrac: 0.2})

	addrOf := map[string]string{}
	addrs := make([]string, len(depots))
	for i, name := range depots {
		addrOf[name] = tb.Infos[name].Addr
		addrs[i] = addrOf[name]
	}
	// Dial per call, as the paper's library did: each probe pays its
	// connection's RTT and draws its own bandwidth jitter.
	client := ibp.NewClient(
		ibp.WithDialer(tb.Model.DialerFrom("MON")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(3*time.Second),
		ibp.WithOpTimeout(60*time.Second),
		ibp.WithPooling(0),
	)
	var engine *slo.Engine
	if len(cfg.Objectives) > 0 {
		engine = slo.New(slo.Config{Clock: clk, Objectives: cfg.Objectives, Bucket: interval})
	}
	mon, err := New(Config{
		Client:   client,
		Depots:   addrs,
		Interval: interval,
		Payload:  cfg.Payload,
		Duration: 2 * interval,
		Clock:    clk,
		Logger:   cfg.Logger,
		SLO:      engine,
	})
	if err != nil {
		return Study{}, nil, nil, err
	}

	// The experiments-package idiom: each round runs synchronously (ops
	// advance the clock through the WAN model), then the clock catches up
	// to the next round boundary. advance-if-behind tolerates sweeps that
	// overrun their interval.
	roundStart := clk.Now()
	for off := time.Duration(0); off < duration; off += interval {
		mon.Sweep()
		roundStart = roundStart.Add(interval)
		if gap := roundStart.Sub(clk.Now()); gap > 0 {
			clk.Advance(gap)
		}
	}
	return mon.Snapshot(true), addrOf, engine, nil
}
