// Package testbed builds the simulated fleet that the paper's experiments,
// stackmon's studies, the examples and the fleet tests all run on: real
// IBP depots on loopback behind one faultnet WAN model, an in-process
// L-Bone registry, and one virtual clock. It is the one place a simulated
// depot is started, so it is also the one place the simulated WAN is wired:
// clients dial through Model.DialerFrom(site), and each depot's own
// third-party COPY dials through the model from the depot's site.
//
// Callers set links on Model before the first dial. The paper's calibration
// (its 14 depots, WAN links and incidents) lives in package experiments.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/depot"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Start is the epoch of every simulated run: the instant the paper's
// exNodes were created (Jan 11 2002; see Figure 7's expiration column).
var Start = time.Date(2002, 1, 11, 15, 33, 48, 0, time.UTC)

// defaultCapacity is a depot's size when its Spec sets none.
const defaultCapacity = 1 << 30

// Spec describes one depot of a testbed.
type Spec struct {
	Name string
	Site geo.Site
	// Avail is the depot process's outage schedule: a renewal process,
	// scripted windows, or any other faultnet.Availability (nil = always
	// up).
	Avail faultnet.Availability
	// Capacity in bytes (0 = 1 GiB).
	Capacity int64
}

// Testbed is a running simulated fleet.
type Testbed struct {
	Clock    *vclock.Virtual
	Model    *faultnet.Model
	Registry *lbone.Registry
	Depots   map[string]*depot.Depot
	Infos    map[string]lbone.DepotInfo
	// Specs lists the depots in the order they were started.
	Specs []Spec
}

// New starts a testbed at Start whose model draws its link jitter from
// seed, with one depot per spec.
func New(seed int64, specs ...Spec) (*Testbed, error) {
	clk := vclock.NewVirtual(Start)
	tb := &Testbed{
		Clock:    clk,
		Model:    faultnet.NewModel(clk, seed),
		Registry: lbone.NewRegistry(0, clk.Now),
		Depots:   map[string]*depot.Depot{},
		Infos:    map[string]lbone.DepotInfo{},
	}
	for _, s := range specs {
		if _, err := tb.Add(s); err != nil {
			tb.Close()
			return nil, err
		}
	}
	return tb, nil
}

// Add starts one more depot, places it in the model and registers it. Like
// the ibp-depot daemon, it keeps a flight recorder behind its postmortem
// surface.
func (tb *Testbed) Add(s Spec) (*depot.Depot, error) {
	if s.Capacity <= 0 {
		s.Capacity = defaultCapacity
	}
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("testbed-" + s.Name),
		Capacity: s.Capacity,
		Clock:    tb.Clock,
		Dialer:   tb.Model.DialerFrom(s.Site.Name),
		Recorder: obs.NewFlightRecorder(0),
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: starting %s: %w", s.Name, err)
	}
	tb.Model.AddDepot(d.Addr(), faultnet.DepotState{Site: s.Site.Name, Avail: s.Avail})
	info := lbone.DepotInfo{
		Addr:        d.Addr(),
		Name:        s.Name,
		Site:        s.Site.Name,
		Loc:         s.Site.Loc,
		Capacity:    s.Capacity,
		MaxDuration: 30 * 24 * time.Hour,
	}
	tb.Registry.Register(info)
	tb.Depots[s.Name] = d
	tb.Infos[s.Name] = info
	tb.Specs = append(tb.Specs, s)
	return d, nil
}

// SetAvail replaces the named depot's outage schedule (and clears any read
// corruption) without stopping the daemon.
func (tb *Testbed) SetAvail(name string, a faultnet.Availability) {
	info := tb.Infos[name]
	tb.Model.AddDepot(info.Addr, faultnet.DepotState{Site: info.Site, Avail: a})
}

// Kill takes the named depot off the simulated network from now for d.
func (tb *Testbed) Kill(name string, d time.Duration) {
	now := tb.Clock.Now()
	tb.SetAvail(name, faultnet.Windows{Down: []faultnet.Window{{From: now, To: now.Add(d)}}})
}

// InfosFor returns the named depots' registry entries, in order.
func (tb *Testbed) InfosFor(names ...string) ([]lbone.DepotInfo, error) {
	out := make([]lbone.DepotInfo, len(names))
	for i, n := range names {
		info, ok := tb.Infos[n]
		if !ok {
			return nil, fmt.Errorf("testbed: unknown depot %q", n)
		}
		out[i] = info
	}
	return out, nil
}

// Close stops every depot.
func (tb *Testbed) Close() {
	for _, d := range tb.Depots {
		d.Close()
	}
}
