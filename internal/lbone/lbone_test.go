package lbone

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func depotAt(name string, site geo.Site, capacity int64, dur time.Duration) DepotInfo {
	return DepotInfo{
		Addr:        name + ".example:6714",
		Name:        name,
		Site:        site.Name,
		Loc:         site.Loc,
		Capacity:    capacity,
		MaxDuration: dur,
	}
}

func TestRegistryQueryFilters(t *testing.T) {
	r := NewRegistry(0, nil)
	r.Register(depotAt("UTK1", geo.UTK, 100<<30, 24*time.Hour))
	r.Register(depotAt("UCSD1", geo.UCSD, 10<<30, time.Hour))
	r.Register(depotAt("HARVARD", geo.Harvard, 50<<30, 7*24*time.Hour))

	if got := r.Query(Requirements{MinCapacity: 20 << 30}); len(got) != 2 {
		t.Fatalf("capacity filter: %d results", len(got))
	}
	if got := r.Query(Requirements{MinDuration: 2 * time.Hour}); len(got) != 2 {
		t.Fatalf("duration filter: %d results", len(got))
	}
	got := r.Query(Requirements{MinCapacity: 20 << 30, MinDuration: 48 * time.Hour})
	if len(got) != 1 || got[0].Name != "HARVARD" {
		t.Fatalf("combined filter: %v", got)
	}
}

func TestRegistryProximityOrdering(t *testing.T) {
	r := NewRegistry(0, nil)
	r.Register(depotAt("UCSB1", geo.UCSB, 1, time.Hour))
	r.Register(depotAt("UTK1", geo.UTK, 1, time.Hour))
	r.Register(depotAt("UNC1", geo.UNC, 1, time.Hour))
	near := geo.UTK.Loc
	got := r.Query(Requirements{Near: &near})
	if len(got) != 3 || got[0].Name != "UTK1" || got[1].Name != "UNC1" || got[2].Name != "UCSB1" {
		t.Fatalf("proximity order: %v", names(got))
	}
	// Max truncation happens after ordering.
	got = r.Query(Requirements{Near: &near, Max: 1})
	if len(got) != 1 || got[0].Name != "UTK1" {
		t.Fatalf("max: %v", names(got))
	}
	// Same-site depots tie on distance; the tie goes by name, never by
	// the registry map's iteration order.
	for _, n := range []string{"UTK5", "UTK3", "UTK4", "UTK2"} {
		r.Register(depotAt(n, geo.UTK, 1, time.Hour))
	}
	want := []string{"UTK1", "UTK2", "UTK3", "UTK4", "UTK5", "UNC1", "UCSB1"}
	if got := names(r.Query(Requirements{Near: &near})); !slices.Equal(got, want) {
		t.Fatalf("same-site ties: %v, want %v", got, want)
	}
}

func TestRegistryDeterministicOrderWithoutNear(t *testing.T) {
	r := NewRegistry(0, nil)
	r.Register(depotAt("B", geo.UTK, 1, time.Hour))
	r.Register(depotAt("A", geo.UTK, 1, time.Hour))
	r.Register(depotAt("C", geo.UTK, 1, time.Hour))
	got := r.Query(Requirements{})
	if ns := names(got); ns[0] != "A" || ns[1] != "B" || ns[2] != "C" {
		t.Fatalf("order: %v", ns)
	}
}

func TestRegistryLiveness(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	r := NewRegistry(time.Minute, clk.Now)
	r.Register(depotAt("UTK1", geo.UTK, 1, time.Hour))
	if len(r.Query(Requirements{})) != 1 {
		t.Fatal("fresh depot should be live")
	}
	clk.Advance(2 * time.Minute)
	if len(r.Query(Requirements{})) != 0 {
		t.Fatal("stale depot should be hidden")
	}
	// Heartbeat revives it.
	if !r.Heartbeat("UTK1.example:6714") {
		t.Fatal("heartbeat on known depot should succeed")
	}
	if len(r.Query(Requirements{})) != 1 {
		t.Fatal("heartbeated depot should be live")
	}
	if r.Heartbeat("nobody:1") {
		t.Fatal("heartbeat on unknown depot should fail")
	}
	r.Deregister("UTK1.example:6714")
	if r.Len() != 0 {
		t.Fatal("deregister should remove entry")
	}
}

func TestRegistryReRegisterUpdates(t *testing.T) {
	r := NewRegistry(0, nil)
	d := depotAt("UTK1", geo.UTK, 100, time.Hour)
	r.Register(d)
	d.Capacity = 999
	r.Register(d)
	got := r.Query(Requirements{})
	if len(got) != 1 || got[0].Capacity != 999 {
		t.Fatalf("re-register should update: %+v", got)
	}
}

func names(ds []DepotInfo) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// ---- server ----
//
// The response grammar of every classic verb is pinned from outside, in
// internal/registry's wire-compatibility table test, against the servers
// lbone-server actually runs.

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := ServeRegistry("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerBadRequests(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cases := [][]string{
		{opRegister, "a:1", "n"},                           // too few fields
		{opRegister, "a:1", "n", "UTK", "999,0", "1", "1"}, // bad location
		{opQuery, "x", "0", "-", "0"},                      // bad capacity
		{opQuery, "0", "0", "nowhere", "0"},                // bad location
		{"BOGUS"},
	}
	for _, c := range cases {
		if err := conn.WriteLine(c...); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadStatus(); err == nil {
			t.Fatalf("request %v should fail", c)
		}
	}
	// Connection survives bad requests.
	if err := conn.WriteLine(opList); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
}

// A client that keeps its connection open between requests (the quorum
// client's parked sessions) must not hold up shutdown: the handler is
// blocked reading the next request line, which never comes, so Close has
// to sever the connection itself.
func TestServerCloseSeversIdleConnections(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One exchange proves the handler is up before the connection idles.
	if err := conn.WriteLine(opList); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on an idle client connection after 1s")
	}
	if _, err := conn.ReadLine(); err == nil {
		t.Fatal("client connection still open after server Close")
	}
}

func dial(addr string) (*wire.Conn, error) {
	raw, err := netxDial(addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(raw), nil
}

func netxDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

func TestPollerRefreshesCapacity(t *testing.T) {
	// A real depot whose free space changes; the poller keeps the registry
	// entry current.
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("poller-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reg := NewRegistry(0, nil)
	reg.Register(DepotInfo{
		Addr: d.Addr(), Name: "D", Site: "UTK", Loc: geo.UTK.Loc,
		Capacity: 999, MaxDuration: time.Hour, // stale advertised values
	})
	client := ibp.NewClient()
	p := NewPoller(reg, nil, client, nil, time.Minute)
	if n := p.PollOnce(); n != 1 {
		t.Fatalf("answered = %d", n)
	}
	got := reg.Query(Requirements{})[0]
	if got.Capacity != 1<<20 {
		t.Fatalf("capacity = %d, want full free space", got.Capacity)
	}
	// Consume space; another poll reflects it.
	set, err := client.Allocate(d.Addr(), 1<<18, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	_ = set
	p.PollOnce()
	got = reg.Query(Requirements{})[0]
	if got.Capacity != (1<<20)-(1<<18) {
		t.Fatalf("capacity after allocation = %d", got.Capacity)
	}
	// Unreachable depots keep their entry.
	reg.Register(DepotInfo{Addr: "127.0.0.1:1", Name: "GHOST", Site: "UTK", Loc: geo.UTK.Loc, Capacity: 7})
	fast := NewPoller(reg, nil, ibp.NewClient(ibp.WithDialTimeout(100*time.Millisecond)), nil, time.Minute)
	if n := fast.PollOnce(); n != 1 {
		t.Fatalf("answered with ghost = %d", n)
	}
	if reg.Len() != 2 {
		t.Fatal("ghost entry should remain (liveness handles removal)")
	}
}

func TestPollerRunStop(t *testing.T) {
	reg := NewRegistry(0, nil)
	p := NewPoller(reg, nil, ibp.NewClient(), nil, 10*time.Millisecond)
	go p.Run()
	time.Sleep(30 * time.Millisecond)
	p.Stop() // must not hang
	p.Stop() // idempotent
}
