package core

import (
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/vclock"
)

// env is a complete in-process testbed: real depots behind the simulated
// WAN, an in-process L-Bone registry, a virtual clock.
type env struct {
	t      *testing.T
	clk    *vclock.Virtual
	model  *faultnet.Model
	reg    *lbone.Registry
	depots map[string]*depot.Depot // name -> daemon
	infos  map[string]lbone.DepotInfo
}

var envStart = time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)

func newEnv(t *testing.T) *env {
	t.Helper()
	clk := vclock.NewVirtual(envStart)
	e := &env{
		t:      t,
		clk:    clk,
		model:  faultnet.NewModel(clk, 1),
		reg:    lbone.NewRegistry(0, clk.Now),
		depots: map[string]*depot.Depot{},
		infos:  map[string]lbone.DepotInfo{},
	}
	// Generous default WAN and fast local links.
	e.model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 20})
	e.model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})
	return e
}

// addDepot starts a depot daemon at the named site.
func (e *env) addDepot(name string, site geo.Site, avail faultnet.Availability) *depot.Depot {
	e.t.Helper()
	return e.addDepotCap(name, site, avail, 256<<20)
}

// addDepotCap is addDepot with an explicit capacity, for tests that need a
// depot small enough to refuse allocations.
func (e *env) addDepotCap(name string, site geo.Site, avail faultnet.Availability, capacity int64) *depot.Depot {
	e.t.Helper()
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("core-test-" + name),
		Capacity: capacity,
		Clock:    e.clk,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { d.Close() })
	e.model.AddDepot(d.Addr(), faultnet.DepotState{Site: site.Name, Avail: avail})
	info := lbone.DepotInfo{
		Addr:        d.Addr(),
		Name:        name,
		Site:        site.Name,
		Loc:         site.Loc,
		Capacity:    capacity,
		MaxDuration: 30 * 24 * time.Hour,
	}
	e.reg.Register(info)
	e.depots[name] = d
	e.infos[name] = info
	return d
}

// tools builds a Tools client at the given site, optionally with NWS.
func (e *env) tools(site geo.Site, withNWS bool) *Tools {
	e.t.Helper()
	client := ibp.NewClient(
		ibp.WithDialer(e.model.DialerFrom(site.Name)),
		ibp.WithClock(e.clk),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithOpTimeout(60*time.Second),
	)
	tl := &Tools{
		IBP:   client,
		LBone: RegistrySource{Reg: e.reg},
		Clock: e.clk,
		Site:  site.Name,
		Loc:   site.Loc,
	}
	if withNWS {
		tl.NWS = nws.NewService(e.clk)
	}
	return tl
}

// infosFor returns DepotInfo entries for the named depots, in order.
func (e *env) infosFor(names ...string) []lbone.DepotInfo {
	out := make([]lbone.DepotInfo, len(names))
	for i, n := range names {
		info, ok := e.infos[n]
		if !ok {
			e.t.Fatalf("unknown depot %s", n)
		}
		out[i] = info
	}
	return out
}

// payload builds deterministic test data.
func payload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i>>8)
	}
	return out
}
