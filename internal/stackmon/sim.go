package stackmon

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/depot"
	"repro/internal/faultnet"
	"repro/internal/ibp"
	"repro/internal/slo"
	"repro/internal/vclock"
)

// The simulated study: real depots on loopback behind a faultnet WAN
// model with scripted outage windows, swept by a Monitor on a virtual
// clock. A 24-hour study completes in well under a second of wall time,
// and because the outage schedule is explicit the expected availability
// of every depot is computable exactly — which is what the acceptance
// test checks the monitor against.

// SimStart is the fixed epoch of simulated studies (virtual clocks need a
// deterministic origin; reusing the paper's exnode creation date keeps
// reports recognizably in-universe).
var SimStart = time.Date(2002, 1, 11, 15, 33, 48, 0, time.UTC)

// SimOutage scripts one depot outage as offsets from the study start.
type SimOutage struct {
	Depot    string        // depot name (must match a SimConfig.Depots entry)
	From, To time.Duration // half-open window [From, To)
}

// SimConfig parameterizes a simulated study.
type SimConfig struct {
	// Depots names the simulated depots (default: the paper's 14-depot
	// L-Bone set, D01..D14).
	Depots []string
	// Outages is the scripted fault schedule.
	Outages []SimOutage
	// Duration is the virtual study length (default 24h).
	Duration time.Duration
	// Interval between sweeps (default 5m).
	Interval time.Duration
	// Payload for the data round (default 16 KiB; 0 keeps the default —
	// use ProbeOnly to disable).
	Payload   int
	ProbeOnly bool
	// Seed drives link jitter deterministically.
	Seed int64
	// Logger receives depot state transitions (default: discard).
	Logger *slog.Logger
	// Objectives, when non-empty, attaches an SLO engine (on the study's
	// virtual clock) fed from every sweep; RunSimSLO returns it so callers
	// can line alert firings up against the outage schedule.
	Objectives []slo.Objective
}

// DefaultSimDepots returns the 14 depot names of the paper's study set.
func DefaultSimDepots() []string {
	out := make([]string, 14)
	for i := range out {
		out[i] = fmt.Sprintf("D%02d", i+1)
	}
	return out
}

// ExpectedAvailability computes, per depot name, the fraction of sweep
// instants at which the depot is up under the scripted schedule — the
// ground truth the Monitor's measured availability must match.
func (cfg SimConfig) ExpectedAvailability() map[string]float64 {
	depots, outages, duration, interval := cfg.withDefaults()
	out := map[string]float64{}
	for _, name := range depots {
		up, total := 0, 0
		for off := time.Duration(0); off < duration; off += interval {
			total++
			down := false
			for _, o := range outages {
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

func (cfg SimConfig) withDefaults() (depots []string, outages []SimOutage, duration, interval time.Duration) {
	depots = cfg.Depots
	if len(depots) == 0 {
		depots = DefaultSimDepots()
	}
	duration = cfg.Duration
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	interval = cfg.Interval
	if interval <= 0 {
		interval = DefInterval
	}
	return depots, cfg.Outages, duration, interval
}

// RunSim executes the simulated study to completion and returns the final
// snapshot (sample detail included) plus the name→address mapping so
// callers can translate report rows back to depot names.
func RunSim(cfg SimConfig) (Study, map[string]string, error) {
	study, addrOf, _, err := RunSimSLO(cfg)
	return study, addrOf, err
}

// RunSimSLO is RunSim returning the study's SLO engine as well (nil
// unless cfg.Objectives is set): its firings are the study's alert
// verdicts, evaluated sweep by sweep on the virtual clock.
func RunSimSLO(cfg SimConfig) (Study, map[string]string, *slo.Engine, error) {
	depots, outages, duration, interval := cfg.withDefaults()
	payload := cfg.Payload
	if payload <= 0 {
		payload = 16 << 10
	}
	if cfg.ProbeOnly {
		payload = 0
	}

	clk := vclock.NewVirtual(SimStart)
	model := faultnet.NewModel(clk, cfg.Seed)
	model.SetLocalLink(faultnet.Link{RTT: 2 * time.Millisecond, Mbps: 30, JitterFrac: 0.1})
	model.SetDefaultLink(faultnet.Link{RTT: 60 * time.Millisecond, Mbps: 4, JitterFrac: 0.2})

	addrOf := map[string]string{}
	var servers []*depot.Depot
	defer func() {
		for _, d := range servers {
			d.Close()
		}
	}()
	for _, name := range depots {
		d, err := depot.Serve("127.0.0.1:0", depot.Config{
			Secret:   []byte("stackmon-" + name),
			Capacity: 64 << 20,
			Clock:    clk,
		})
		if err != nil {
			return Study{}, nil, nil, fmt.Errorf("stackmon: starting sim depot %s: %w", name, err)
		}
		servers = append(servers, d)
		var wins []faultnet.Window
		for _, o := range outages {
			if o.Depot == name {
				wins = append(wins, faultnet.Window{From: SimStart.Add(o.From), To: SimStart.Add(o.To)})
			}
		}
		var avail faultnet.Availability = faultnet.AlwaysUp{}
		if len(wins) > 0 {
			avail = faultnet.Windows{Down: wins}
		}
		model.AddDepot(d.Addr(), faultnet.DepotState{Site: name, Avail: avail})
		addrOf[name] = d.Addr()
	}

	client := ibp.NewClient(
		ibp.WithDialer(model.DialerFrom("MON")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(3*time.Second),
		ibp.WithOpTimeout(60*time.Second),
	)
	var engine *slo.Engine
	if len(cfg.Objectives) > 0 {
		engine = slo.New(slo.Config{Clock: clk, Objectives: cfg.Objectives, Bucket: interval})
	}
	mon, err := New(Config{
		Client:   client,
		Depots:   addresses(depots, addrOf),
		Interval: interval,
		Payload:  payload,
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

func addresses(names []string, addrOf map[string]string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = addrOf[n]
	}
	return out
}
