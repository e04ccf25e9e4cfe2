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
	"repro/internal/testbed"
)

// env is a testbed (real depots behind the simulated WAN, an in-process
// L-Bone registry, a virtual clock) with helpers that fail the test.
type env struct {
	*testbed.Testbed
	t *testing.T
}

func newEnv(t *testing.T) *env {
	t.Helper()
	tb, err := testbed.New(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	// Generous default WAN and fast local links.
	tb.Model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 20})
	tb.Model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})
	return &env{Testbed: tb, t: t}
}

// addDepot starts a depot daemon at the named site.
func (e *env) addDepot(name string, site geo.Site, avail faultnet.Availability) *depot.Depot {
	e.t.Helper()
	return e.addDepotCap(name, site, avail, 0)
}

// addDepotCap is addDepot with an explicit capacity, for tests that need a
// depot small enough to refuse allocations.
func (e *env) addDepotCap(name string, site geo.Site, avail faultnet.Availability, capacity int64) *depot.Depot {
	e.t.Helper()
	d, err := e.Add(testbed.Spec{Name: name, Site: site, Avail: avail, Capacity: capacity})
	if err != nil {
		e.t.Fatal(err)
	}
	return d
}

// tools builds a Tools client at the given site, optionally with NWS.
func (e *env) tools(site geo.Site, withNWS bool) *Tools {
	e.t.Helper()
	client := ibp.NewClient(
		ibp.WithDialer(e.Model.DialerFrom(site.Name)),
		ibp.WithClock(e.Clock),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithOpTimeout(60*time.Second),
	)
	tl := &Tools{
		IBP:   client,
		LBone: RegistrySource{Reg: e.Registry},
		Clock: e.Clock,
		Site:  site.Name,
		Loc:   site.Loc,
	}
	if withNWS {
		tl.NWS = nws.NewService(e.Clock)
	}
	return tl
}

// infosFor returns DepotInfo entries for the named depots, in order.
func (e *env) infosFor(names ...string) []lbone.DepotInfo {
	e.t.Helper()
	infos, err := e.InfosFor(names...)
	if err != nil {
		e.t.Fatal(err)
	}
	return infos
}

// payload builds deterministic test data.
func payload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*131 + i>>8)
	}
	return out
}
