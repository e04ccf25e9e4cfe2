package repaird

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/registry"
	"repro/internal/slo"
	"repro/internal/testbed"
)

// ---- fakes ----

// fakeDir is an in-memory versioned exNode directory that satisfies both
// core.ExNodeDirectory and DirectoryLister. exNodes round-trip through
// the serializer so callers never alias the stored copy.
type fakeDir struct {
	mu       sync.Mutex
	bytes    map[string][]byte
	vers     map[string]int64
	putErr   error // next Put returns this once
	putLands bool  // ...after storing the blob, as a put that landed yet reported a conflict
}

func newFakeDir() *fakeDir {
	return &fakeDir{bytes: map[string][]byte{}, vers: map[string]int64{}}
}

func (d *fakeDir) PutExNode(name string, x *exnode.ExNode, prev int64) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	putErr := d.putErr
	d.putErr = nil
	if putErr != nil && !d.putLands {
		return 0, putErr
	}
	if d.vers[name] != prev {
		return 0, registry.ErrVersionConflict
	}
	b, err := exnode.Marshal(x)
	if err != nil {
		return 0, err
	}
	d.bytes[name] = b
	d.vers[name] = prev + 1
	if putErr != nil {
		return 0, putErr
	}
	return prev + 1, nil
}

func (d *fakeDir) GetExNode(name string) (*exnode.ExNode, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.bytes[name]
	if !ok {
		return nil, 0, fmt.Errorf("fakeDir: %s not found", name)
	}
	x, err := exnode.Unmarshal(b)
	if err != nil {
		return nil, 0, err
	}
	return x, d.vers[name], nil
}

func (d *fakeDir) ListExNodes() ([]registry.DirEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []registry.DirEntry
	for name, v := range d.vers {
		out = append(out, registry.DirEntry{Name: name, Version: v})
	}
	return out, nil
}

// fakeAvail is a canned stackmon: a fixed availability fraction per depot
// address, unknown otherwise.
type fakeAvail map[string]float64

func (f fakeAvail) Availability(addr string) (float64, bool) {
	a, ok := f[addr]
	return a, ok
}

// ---- environment ----

// env is a testbed with every depot at UTK, a fake directory, and Tools
// at UTK over both.
type env struct {
	*testbed.Testbed
	t     *testing.T
	infos []lbone.DepotInfo // in start order
	dir   *fakeDir
	tools *core.Tools
}

func newEnv(t *testing.T) *env {
	t.Helper()
	tb, err := testbed.New(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})
	e := &env{Testbed: tb, t: t, dir: newFakeDir()}
	e.tools = &core.Tools{
		IBP: ibp.NewClient(
			ibp.WithDialer(tb.Model.DialerFrom("UTK")),
			ibp.WithClock(tb.Clock),
			ibp.WithDialTimeout(time.Second),
		),
		LBone:     core.RegistrySource{Reg: tb.Registry},
		Directory: e.dir,
		Clock:     tb.Clock,
		Site:      "UTK",
		Loc:       geo.UTK.Loc,
	}
	return e
}

// addDepot starts a depot at UTK; avail == nil means always up.
func (e *env) addDepot(name string, avail faultnet.Availability) lbone.DepotInfo {
	e.t.Helper()
	if _, err := e.Add(testbed.Spec{Name: name, Site: geo.UTK, Avail: avail}); err != nil {
		e.t.Fatal(err)
	}
	e.infos = append(e.infos, e.Infos[name])
	return e.Infos[name]
}

// ---- EffectiveCoverage ----

func mkMapping(addr string, off, length int64, expires time.Time) *exnode.Mapping {
	return &exnode.Mapping{
		Offset: off, Length: length,
		Read:    ibp.Cap{Addr: addr, Key: "k", Type: ibp.CapRead, Tag: "t"},
		Manage:  ibp.Cap{Addr: addr, Key: "k", Type: ibp.CapManage, Tag: "t"},
		Expires: expires,
	}
}

func TestEffectiveCoverageReplicas(t *testing.T) {
	now := testbed.Start
	lease := now.Add(time.Hour)
	x := &exnode.ExNode{Name: "f", Size: 100}
	m1 := mkMapping("a:1", 0, 100, lease)
	m2 := mkMapping("b:1", 0, 100, lease)
	m2.Replica = 1
	m3 := mkMapping("c:1", 0, 100, now.Add(-time.Minute)) // expired
	m3.Replica = 2
	x.Mappings = []*exnode.Mapping{m1, m2, m3}

	allLive := func(string) bool { return true }
	if got := EffectiveCoverage(x, now, allLive); got != 2 {
		t.Fatalf("coverage = %d, want 2 (expired replica must not count)", got)
	}
	bDown := func(addr string) bool { return addr != "b:1" }
	if got := EffectiveCoverage(x, now, bDown); got != 1 {
		t.Fatalf("coverage with b down = %d, want 1", got)
	}
}

func TestEffectiveCoverageCodedGroup(t *testing.T) {
	now := testbed.Start
	lease := now.Add(time.Hour)
	x := &exnode.ExNode{Name: "rs", Size: 300}
	// One replica plus a 3+2 RS group protecting the whole file.
	rep := mkMapping("r:1", 0, 300, lease)
	x.Mappings = []*exnode.Mapping{rep}
	for i := 0; i < 5; i++ {
		m := mkMapping(fmt.Sprintf("g%d:1", i), 0, 300, lease)
		m.Group = "g0"
		m.BlockIndex = i
		m.DataBlocks, m.ParityBlocks, m.BlockSize = 3, 2, 100
		if i < 3 {
			m.Function = exnode.FuncRSData
		} else {
			m.Function = exnode.FuncRSParity
		}
		x.Mappings = append(x.Mappings, m)
	}
	allLive := func(string) bool { return true }
	// Replica (1) + intact 3+2 group (5-3+1 = 3) = 4.
	if got := EffectiveCoverage(x, now, allLive); got != 4 {
		t.Fatalf("coverage = %d, want 4", got)
	}
	// Three coded blocks down: group unrecoverable, only the replica left.
	threeDown := func(addr string) bool {
		return addr != "g0:1" && addr != "g1:1" && addr != "g4:1"
	}
	if got := EffectiveCoverage(x, now, threeDown); got != 1 {
		t.Fatalf("coverage with 3 blocks down = %d, want 1", got)
	}
}

// ---- queue ----

func TestQueueOrderAndDedup(t *testing.T) {
	q := newQueue()
	if !q.push(Risk{Name: "low", Score: 0.2}) {
		t.Fatal("first push not new")
	}
	q.push(Risk{Name: "high", Score: 0.9})
	q.push(Risk{Name: "mid", Score: 0.5})
	if q.push(Risk{Name: "low", Score: 0.95}) {
		t.Fatal("re-push of queued name reported as new")
	}
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
	var order []string
	for {
		r, ok := q.pop()
		if !ok {
			break
		}
		order = append(order, r.Name)
	}
	want := []string{"low", "high", "mid"} // low was re-prioritized to 0.95
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order = %v, want %v", order, want)
		}
	}
}

// ---- sharding ----

func TestShardPartition(t *testing.T) {
	e := newEnv(t)
	const shards = 3
	daemons := make([]*Daemon, shards)
	for i := range daemons {
		d, err := New(Config{Tools: e.tools, ShardIndex: i, ShardCount: shards})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("file-%03d", i)
		owners := 0
		for _, d := range daemons {
			if d.Owns(name) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%s owned by %d daemons, want exactly 1", name, owners)
		}
	}
}

// ---- sweep + drain ----

func TestSweepDrainRepairsDegradedFile(t *testing.T) {
	e := newEnv(t)
	// A dies one minute in and never comes back; B, C, D stay up.
	a := e.addDepot("A", faultnet.Windows{Down: []faultnet.Window{
		{From: testbed.Start.Add(time.Minute), To: testbed.Start.Add(1000 * time.Hour)},
	}})
	b := e.addDepot("B", nil)
	e.addDepot("C", nil)
	e.addDepot("D", nil)

	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	x, err := e.tools.Upload("hot", payload, core.UploadOptions{
		Replicas: 2, Depots: []lbone.DepotInfo{a, b}, Duration: 240 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.tools.StoreExNode("hot", x, 0); err != nil {
		t.Fatal(err)
	}
	cold, err := e.tools.Upload("cold", payload, core.UploadOptions{
		Replicas: 2, Depots: []lbone.DepotInfo{e.Infos["C"], e.Infos["D"]}, Duration: 240 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.tools.StoreExNode("cold", cold, 0); err != nil {
		t.Fatal(err)
	}
	e.Clock.Advance(2 * time.Minute) // A is now down

	eng := slo.New(slo.Config{Clock: e.Clock})
	d, err := New(Config{
		Tools: e.tools,
		Avail: fakeAvail{a.Addr: 0.0, b.Addr: 0.99, e.Infos["C"].Addr: 0.99, e.Infos["D"].Addr: 0.99},
		SLO:   eng,
		Maintain: core.MaintainOptions{
			MinCoverage: 2,
			Depots:      e.infos,
		},
		Workers:           2,
		MaxRepairPerDepot: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	risks, err := d.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(risks) != 2 {
		t.Fatalf("scored %d files, want 2", len(risks))
	}
	if risks[0].Name != "hot" || risks[0].Score < 0.6 {
		t.Fatalf("riskiest = %+v, want hot at >= 0.6", risks[0])
	}
	c := d.Counters()
	if c.Queued != 1 {
		t.Fatalf("queued = %d, want 1 (cold file must not queue)", c.Queued)
	}
	if c.AtRisk != 1 || c.BelowTarget != 1 {
		t.Fatalf("at_risk = %d below_target = %d, want 1/1", c.AtRisk, c.BelowTarget)
	}

	d.Drain()
	c = d.Counters()
	if c.Passes != 1 || c.PassFailures != 0 {
		t.Fatalf("passes = %d failures = %d, want 1/0", c.Passes, c.PassFailures)
	}
	// A is unreachable, not provably empty, so the pass restores coverage
	// with a new replica and leaves the unprobeable mapping in place.
	if c.ReplicasAdded == 0 {
		t.Fatalf("pass did not repair: %+v", c)
	}
	if c.Republished != 1 {
		t.Fatalf("republished = %d, want 1", c.Republished)
	}
	if lc := d.Limiter().Counters(); lc.LimitAcquires == 0 {
		t.Fatal("repair pass bypassed the per-depot limiter")
	}

	// The repaired file is whole again: next sweep finds nothing at risk,
	// and the directory copy downloads through surviving depots.
	if _, err := d.Sweep(); err != nil {
		t.Fatal(err)
	}
	c = d.Counters()
	if c.AtRisk != 0 {
		t.Fatalf("post-repair at_risk = %d, want 0", c.AtRisk)
	}
	got, _, err := e.tools.DownloadByName("hot", core.DownloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired file corrupt")
	}
}

func TestDrainCountsVersionConflict(t *testing.T) {
	// A pass that loses the CAS race releases the replica it added, which
	// nothing names. One whose put landed although it reported a conflict
	// keeps it: the directory names it.
	for _, landed := range []bool{false, true} {
		t.Run(fmt.Sprintf("landed=%v", landed), func(t *testing.T) {
			e := newEnv(t)
			a := e.addDepot("A", faultnet.Windows{Down: []faultnet.Window{
				{From: testbed.Start.Add(time.Minute), To: testbed.Start.Add(1000 * time.Hour)},
			}})
			b := e.addDepot("B", nil)
			spare := e.addDepot("C", nil)

			payload := bytes.Repeat([]byte{7}, 16<<10)
			x, err := e.tools.Upload("contended", payload, core.UploadOptions{
				Replicas: 2, Depots: []lbone.DepotInfo{a, b}, Duration: 240 * time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.tools.StoreExNode("contended", x, 0); err != nil {
				t.Fatal(err)
			}
			e.Clock.Advance(2 * time.Minute)

			d, err := New(Config{
				Tools:    e.tools,
				Avail:    fakeAvail{a.Addr: 0.0},
				Maintain: core.MaintainOptions{MinCoverage: 2, Depots: e.infos},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Sweep(); err != nil {
				t.Fatal(err)
			}
			e.dir.mu.Lock()
			e.dir.putErr = registry.ErrVersionConflict // a racing writer wins the CAS
			e.dir.putLands = landed
			e.dir.mu.Unlock()
			d.Drain()
			c := d.Counters()
			if c.Conflicts != 1 {
				t.Fatalf("conflicts = %d, want 1", c.Conflicts)
			}
			if c.PassFailures != 0 {
				t.Fatalf("a lost CAS race must not count as a failure: %+v", c)
			}
			if c.ReplicasAdded != 1 {
				t.Fatalf("replicas added = %d, want 1 (on the spare depot)", c.ReplicasAdded)
			}
			st, err := e.tools.IBP.Status(spare.Addr)
			if err != nil {
				t.Fatal(err)
			}
			named := 0
			if landed {
				named = 1
				stored, _, err := e.tools.LoadExNode("contended")
				if err != nil {
					t.Fatal(err)
				}
				if len(stored.MappingsByDepot("C")) != 1 {
					t.Fatalf("the landed exNode does not name the spare depot's replica")
				}
			}
			if st.Allocations != named {
				t.Fatalf("spare depot holds %d allocation(s) after the conflict, want %d", st.Allocations, named)
			}
		})
	}
}

// Run drives sweep-drain rounds off the virtual clock and stops cleanly.
func TestRunLoopOnVirtualClock(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", nil)
	d, err := New(Config{Tools: e.tools, Interval: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { d.Run(stop); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for d.Counters().Sweeps < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("run loop stalled at %d sweeps", d.Counters().Sweeps)
		}
		e.Clock.Advance(10 * time.Minute)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	e.Clock.Advance(10 * time.Minute) // release a Run blocked in After
	<-done
}

// The metrics surface stays well-formed with zero activity.
func TestPromMetricsSmoke(t *testing.T) {
	e := newEnv(t)
	d, err := New(Config{Tools: e.tools, SLO: slo.New(slo.Config{Clock: e.Clock})})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range d.PromMetrics() {
		names[m.Name] = true
	}
	for _, want := range []string{
		"repair_sweeps_total", "repair_queue_depth", "repair_files_at_risk",
	} {
		if !names[want] {
			t.Fatalf("PromMetrics missing %s", want)
		}
	}
}
