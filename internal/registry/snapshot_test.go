package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/vclock"
)

// snapshotEnv is one row's world: a three-member group holding four depots
// that differ in site, capacity and duration, and a client on a virtual
// clock that registered them and has read the table once — so it holds a
// snapshot taken at the clock's current reading.
type snapshotEnv struct {
	clk     *vclock.Virtual
	servers []*lbone.Server
	reps    []*Replica
	addrs   []string
	c       *QuorumClient
}

const snapshotDialTimeout = 300 * time.Millisecond

func (e *snapshotEnv) client() *QuorumClient {
	return NewQuorumClient(strings.Join(e.addrs, ","), WithClock(e.clk),
		WithTimeouts(snapshotDialTimeout, 2*time.Second))
}

// vqueries is the number of VQUERY exchanges the group has served.
func (e *snapshotEnv) vqueries() (n int64) {
	for _, rep := range e.reps {
		n += rep.Stats().QuorumReads.Load()
	}
	return n
}

func snapshotDepots() []lbone.DepotInfo {
	mk := func(s geo.Site, capacity int64, d time.Duration) lbone.DepotInfo {
		return lbone.DepotInfo{Addr: strings.ToLower(s.Name) + ".example:6714", Name: s.Name + "1",
			Site: s.Name, Loc: s.Loc, Capacity: capacity, MaxDuration: d}
	}
	return []lbone.DepotInfo{
		mk(geo.UTK, 100<<30, 24*time.Hour),
		mk(geo.UCSD, 10<<30, time.Hour),
		mk(geo.Harvard, 1<<30, 240*time.Hour),
		mk(geo.Turin, 50<<30, 48*time.Hour),
	}
}

func names(ds []lbone.DepotInfo) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// The depot-table snapshot's contract (DESIGN §9.6), one row per clause.
func TestDepotSnapshotSemantics(t *testing.T) {
	all := []string{"HARVARD1", "TURIN1", "UCSD1", "UTK1"} // by name: no Near
	mustQuery := func(t *testing.T, c *QuorumClient, req lbone.Requirements) []lbone.DepotInfo {
		t.Helper()
		got, err := c.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	rows := []struct {
		name string
		run  func(t *testing.T, e *snapshotEnv)
	}{
		{"a hit inside the TTL costs no exchange and hands out its own slice", func(t *testing.T, e *snapshotEnv) {
			reads, ops := e.vqueries(), e.c.Stats().Ops.Load()
			e.clk.Advance(depotSnapshotTTL - time.Nanosecond)
			got := mustQuery(t, e.c, lbone.Requirements{})
			sort.Slice(got, func(i, j int) bool { return got[i].Name > got[j].Name })
			got[0].Name = "scribbled"
			if again := names(mustQuery(t, e.c, lbone.Requirements{})); !reflect.DeepEqual(again, all) {
				t.Fatalf("second hit = %v after the caller reordered the first, want %v", again, all)
			}
			if e.vqueries() != reads || e.c.Stats().Ops.Load() != ops {
				t.Fatalf("two hits cost %d VQUERYs and %d quorum ops, want 0 and 0",
					e.vqueries()-reads, e.c.Stats().Ops.Load()-ops)
			}
			if hits := e.c.Stats().SnapshotHits.Load(); hits != 2 {
				t.Fatalf("SnapshotHits = %d, want 2", hits)
			}
		}},
		{"requirements applied to the snapshot equal a fresh majority read", func(t *testing.T, e *snapshotEnv) {
			for _, req := range []lbone.Requirements{
				{Near: &geo.UCSD.Loc},
				{Near: &geo.Stuttgart.Loc, Max: 2},
				{MinDuration: 24 * time.Hour},
				{MinCapacity: 20 << 30, Near: &geo.Harvard.Loc},
				{MinDuration: 2 * time.Hour, MinCapacity: 2 << 30, Max: 1},
				{MinCapacity: 1 << 40},
			} {
				reads := e.vqueries()
				local := mustQuery(t, e.c, req)
				if e.vqueries() != reads {
					t.Fatalf("%+v was not answered from the snapshot", req)
				}
				fresh := e.client()
				want := mustQuery(t, fresh, req)
				fresh.Close()
				if !reflect.DeepEqual(local, want) {
					t.Errorf("%+v: snapshot %v, fresh read %v", req, names(local), names(want))
				}
			}
			if got := names(mustQuery(t, e.c, lbone.Requirements{Near: &geo.Stuttgart.Loc, Max: 2})); !reflect.DeepEqual(got, []string{"TURIN1", "HARVARD1"}) {
				t.Errorf("nearest two to Stuttgart = %v", got)
			}
		}},
		{"the snapshot expires on the clock", func(t *testing.T, e *snapshotEnv) {
			reads := e.vqueries()
			e.clk.Advance(depotSnapshotTTL)
			mustQuery(t, e.c, lbone.Requirements{})
			if got := e.vqueries() - reads; got != 2 {
				t.Fatalf("a query one TTL after the read cost %d VQUERYs, want a majority read of 2", got)
			}
			mustQuery(t, e.c, lbone.Requirements{})
			if got := e.vqueries() - reads; got != 2 {
				t.Fatalf("the re-read was not kept: %d VQUERYs after the next query", got)
			}
		}},
		{"own register and deregister are visible in the very next query", func(t *testing.T, e *snapshotEnv) {
			if err := e.c.RegisterDepot(testDepot("UNC1")); err != nil {
				t.Fatal(err)
			}
			if got := names(mustQuery(t, e.c, lbone.Requirements{})); len(got) != 5 || got[3] != "UNC1" {
				t.Fatalf("after own register: %v", got)
			}
			if err := e.c.DeregisterDepot(testDepot("UNC1").Addr); err != nil {
				t.Fatal(err)
			}
			if got := names(mustQuery(t, e.c, lbone.Requirements{})); !reflect.DeepEqual(got, all) {
				t.Fatalf("after own deregister: %v", got)
			}
		}},
		{"another client's deregistration is visible after at most one TTL", func(t *testing.T, e *snapshotEnv) {
			other := e.client()
			defer other.Close()
			if err := other.DeregisterDepot(snapshotDepots()[0].Addr); err != nil {
				t.Fatal(err)
			}
			e.clk.Advance(depotSnapshotTTL - time.Nanosecond)
			if got := mustQuery(t, e.c, lbone.Requirements{}); len(got) != 4 {
				t.Fatalf("inside the TTL: %v, want the snapshot's four", names(got))
			}
			e.clk.Advance(time.Nanosecond)
			if got := names(mustQuery(t, e.c, lbone.Requirements{})); !reflect.DeepEqual(got, all[:3]) {
				t.Fatalf("one TTL on: %v, want %v", got, all[:3])
			}
		}},
		{"a view change drops the snapshot", func(t *testing.T, e *snapshotEnv) {
			for _, rep := range e.reps {
				if err := rep.Reconfigure(View{Seq: 3, Members: e.addrs, Shards: 4}); err != nil {
					t.Fatal(err)
				}
			}
			// Any stamped operation meets STALE_VIEW and installs view 3.
			if _, _, err := e.c.GetExNode("files/none"); !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			reads := e.vqueries()
			mustQuery(t, e.c, lbone.Requirements{})
			if got := e.vqueries() - reads; got != 2 {
				t.Fatalf("the query after a view change cost %d VQUERYs, want a majority read of 2", got)
			}
		}},
		{"majority lost after a warm read: served to the TTL, then detected, and the table is gone", func(t *testing.T, e *snapshotEnv) {
			e.servers[0].Close()
			e.servers[1].Close()
			e.clk.Advance(depotSnapshotTTL - time.Nanosecond)
			if got, err := e.c.Query(lbone.Requirements{}); err != nil || len(got) != 4 {
				t.Fatalf("inside the TTL with the majority gone: %v, %v", names(got), err)
			}
			e.clk.Advance(time.Nanosecond)
			begin := time.Now()
			got, err := e.c.Query(lbone.Requirements{})
			if took := time.Since(begin); took > 3*snapshotDialTimeout {
				t.Errorf("majority loss took %v, want within one dial timeout per member", took)
			}
			if got != nil || !errors.Is(err, ErrMajorityLost) || Classify(err) != ClassDetected {
				t.Fatalf("past the TTL with the majority gone: %v, %v (%v)", names(got), err, Classify(err))
			}
			if e.c.snapshot != nil {
				t.Fatal("the expired snapshot outlived its failed refresh")
			}
			// The registry recovers with one depot fewer: the two restarted
			// members come back with empty depot tables, the three depots
			// still alive announce themselves again and the fourth is gone.
			// What is served next is a read of that, not the table from
			// before the outage.
			for i, rep := range e.reps[:2] {
				srv, err := lbone.ServeRegistry(e.addrs[i], lbone.ServerConfig{Extension: rep.Handle})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				rep.Bind(srv)
			}
			other := e.client()
			defer other.Close()
			for _, d := range snapshotDepots()[1:] {
				if err := other.RegisterDepot(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := other.DeregisterDepot(snapshotDepots()[0].Addr); err != nil {
				t.Fatal(err)
			}
			if got := names(mustQuery(t, e.c, lbone.Requirements{})); !reflect.DeepEqual(got, all[:3]) {
				t.Fatalf("after recovery: %v, want %v", got, all[:3])
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := &snapshotEnv{clk: vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))}
			e.servers, e.reps, e.addrs = startGroup(t, 3)
			e.c = e.client()
			defer e.c.Close()
			for _, d := range snapshotDepots() {
				if err := e.c.RegisterDepot(d); err != nil {
					t.Fatal(err)
				}
			}
			if got := names(mustQuery(t, e.c, lbone.Requirements{})); !reflect.DeepEqual(got, all) {
				t.Fatalf("warm read = %v, want %v", got, all)
			}
			row.run(t, e)
		})
	}
}

// Queries race the client's own registrations (run under -race in tier-1):
// no query may fail, and one that starts after a registration returned
// sees it — an in-flight refresh that read the table before the write must
// not install it over the invalidation.
func TestDepotSnapshotConcurrentHammer(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()
	const readers, rounds = 8, 60
	var registered sync.Map // name -> struct{}: registrations that have returned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var want []string
				registered.Range(func(k, _ any) bool { want = append(want, k.(string)); return true })
				got, err := c.Query(lbone.Requirements{})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				seen := map[string]bool{}
				for _, d := range got {
					seen[d.Name] = true
				}
				for _, name := range want {
					if !seen[name] {
						t.Errorf("query missed %s, registered before it began (got %d depots)", name, len(got))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		name := fmt.Sprintf("D%02d", i)
		if err := c.RegisterDepot(testDepot(name)); err != nil {
			t.Fatal(err)
		}
		registered.Store(name, struct{}{})
	}
	close(stop)
	wg.Wait()
	if got, err := c.Query(lbone.Requirements{}); err != nil || len(got) != rounds {
		t.Fatalf("final query = %d depots, %v; want %d", len(got), err, rounds)
	}
}
