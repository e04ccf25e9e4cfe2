package registry

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/wire"
)

// startGroup brings up n replicas. Listen addresses are only known after
// binding, so each replica starts in a placeholder seed view and the real
// membership is installed through the Reconfigure hook — which is also
// how dynamic membership will arrive, so the tests exercise the same
// path.
func startGroup(t *testing.T, n int) ([]*lbone.Server, []*Replica, []string) {
	t.Helper()
	servers := make([]*lbone.Server, n)
	replicas := make([]*Replica, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, rep, err := Serve("127.0.0.1:0", Config{
			Members: []string{"placeholder:0"},
			Seq:     1,
			Shards:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i], replicas[i], addrs[i] = srv, rep, srv.Addr()
	}
	real := View{Seq: 2, Members: addrs, Shards: 4}
	for _, rep := range replicas {
		if err := rep.Reconfigure(real); err != nil {
			t.Fatal(err)
		}
	}
	return servers, replicas, addrs
}

func quorumClient(addrs []string) *QuorumClient {
	all := ""
	for i, a := range addrs {
		if i > 0 {
			all += ","
		}
		all += a
	}
	return NewQuorumClient(all, WithTimeouts(300*time.Millisecond, 2*time.Second))
}

func testDepot(name string) lbone.DepotInfo {
	return lbone.DepotInfo{
		Addr: name + ".example:6714", Name: name,
		Site: geo.UTK.Name, Loc: geo.UTK.Loc,
		Capacity: 100 << 30, MaxDuration: 24 * time.Hour,
	}
}

func TestViewFetchAndValidate(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs[:1]) // one seed is enough to learn the view
	v, err := c.RefreshView()
	if err != nil {
		t.Fatal(err)
	}
	if v.Seq != 2 || len(v.Members) != 3 || v.Shards != 4 {
		t.Fatalf("view = %+v", v)
	}
	if v.Quorum() != 2 {
		t.Fatalf("quorum = %d", v.Quorum())
	}
	if err := (View{Seq: 1, Members: nil, Shards: 4}).Validate(); err == nil {
		t.Fatal("empty member list should not validate")
	}
	if err := (View{Seq: 1, Members: []string{"a", "a"}, Shards: 4}).Validate(); err == nil {
		t.Fatal("duplicate members should not validate")
	}
}

func TestQuorumRegisterAndQuery(t *testing.T) {
	servers, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatal(err)
	}
	// Every replica holds the entry with the same stamp.
	for i, s := range servers {
		s.WithRegistry(func(r *lbone.Registry) {
			if r.Len() != 1 {
				t.Errorf("replica %d entries = %d", i, r.Len())
			}
		})
	}
	got, err := c.Query(lbone.Requirements{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "UTK1" {
		t.Fatalf("query = %v", got)
	}
	// Deregistration rides the same quorum.
	if err := c.DeregisterDepot(testDepot("UTK1").Addr); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Query(lbone.Requirements{}); len(got) != 0 {
		t.Fatalf("after deregister: %v", got)
	}
}

// Replica down (minority): every operation still succeeds, counted as a
// tolerated failover.
func TestQuorumToleratesMinorityDown(t *testing.T) {
	servers, _, addrs := startGroup(t, 3)
	servers[0].Close()

	c := quorumClient(addrs)
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatalf("register with 2/3 up: %v", err)
	}
	got, err := c.Query(lbone.Requirements{})
	if err != nil {
		t.Fatalf("query with 2/3 up: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("query = %v", got)
	}
	if c.Stats().Failovers.Load() == 0 {
		t.Fatal("failovers not counted")
	}
	if Classify(nil) != ClassTolerated {
		t.Fatal("successful op should classify tolerated")
	}
}

// Majority down: detected, fail fast with ErrMajorityLost.
func TestQuorumDetectsMajorityLoss(t *testing.T) {
	servers, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	// Learn the view while healthy, then lose the majority.
	if _, err := c.RefreshView(); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	servers[1].Close()

	_, err := c.Query(lbone.Requirements{})
	if !errors.Is(err, ErrMajorityLost) {
		t.Fatalf("query err = %v, want ErrMajorityLost", err)
	}
	if Classify(err) != ClassDetected {
		t.Fatalf("classify = %v, want detected", Classify(err))
	}
	if err := c.RegisterDepot(testDepot("UTK1")); !errors.Is(err, ErrMajorityLost) {
		t.Fatalf("register err = %v, want ErrMajorityLost", err)
	}
	if c.Stats().MajorityLost.Load() < 2 {
		t.Fatalf("majority-lost count = %d", c.Stats().MajorityLost.Load())
	}
}

// Stale view: the group reconfigures after the client cached its view;
// the client refreshes and retries once, transparently.
func TestQuorumStaleViewRefreshRetry(t *testing.T) {
	_, replicas, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	if _, err := c.RefreshView(); err != nil {
		t.Fatal(err)
	}
	next := View{Seq: 3, Members: addrs, Shards: 4}
	for _, rep := range replicas {
		if err := rep.Reconfigure(next); err != nil {
			t.Fatal(err)
		}
	}
	// Cached seq 2 is now stale everywhere; the op must still succeed.
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatalf("register across reconfiguration: %v", err)
	}
	if c.Stats().StaleRetries.Load() == 0 {
		t.Fatal("stale retry not counted")
	}
	if got, err := c.Query(lbone.Requirements{}); err != nil || len(got) != 1 {
		t.Fatalf("query after refresh: %v, %v", got, err)
	}
	if replicas[0].Stats().StaleViews.Load() == 0 {
		t.Fatal("replica did not count the stale rejection")
	}
}

func TestReconfigureHookInvariants(t *testing.T) {
	_, replicas, addrs := startGroup(t, 3)
	rep := replicas[0]
	if err := rep.Reconfigure(View{Seq: 2, Members: addrs, Shards: 4}); err == nil {
		t.Fatal("same-seq reconfigure should fail")
	}
	if err := rep.Reconfigure(View{Seq: 9, Members: addrs, Shards: 8}); err == nil {
		t.Fatal("shard-count change should fail")
	}
	if err := rep.Reconfigure(View{Seq: 9, Members: addrs[:2], Shards: 4}); err != nil {
		t.Fatalf("membership change (the stubbed dynamic path) should install: %v", err)
	}
	if got := rep.View(); got.Seq != 9 || len(got.Members) != 2 {
		t.Fatalf("installed view = %+v", got)
	}
}

func testExNode(t *testing.T, name string, size int64) *exnode.ExNode {
	t.Helper()
	key, err := ibp.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	set := ibp.MintSet([]byte("reg-test"), "depot.example:6714", key)
	x := exnode.New(name, size)
	x.Add(&exnode.Mapping{Offset: 0, Length: size,
		Read: set.Read, Write: set.Write, Manage: set.Manage, Depot: "depot.example:6714"})
	return x
}

func TestDirectoryRoundTripAndVersioning(t *testing.T) {
	_, replicas, addrs := startGroup(t, 3)
	dir := NewDirectory(quorumClient(addrs))

	x := testExNode(t, "data/alpha bravo.txt", 4096) // name with a space: quoting path
	v1, err := dir.PutExNode(x.Name, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 {
		t.Fatalf("first version = %d", v1)
	}
	got, version, err := dir.GetExNode(x.Name)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || got.Name != x.Name || got.Size != x.Size || len(got.Mappings) != 1 {
		t.Fatalf("round trip: v%d %+v", version, got)
	}

	// Stale-version writes lose the optimistic race.
	if _, err := dir.PutExNode(x.Name, x, 0); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale put err = %v, want ErrVersionConflict", err)
	}
	if Classify(fmt.Errorf("wrapped: %w", ErrVersionConflict)) != ClassUntolerated {
		t.Fatal("version conflict should classify untolerated")
	}
	// The successor version installs.
	if _, err := dir.PutExNode(x.Name, x, version); err != nil {
		t.Fatal(err)
	}

	// Missing names are ErrNotFound.
	if _, _, err := dir.GetExNode("no/such"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get err = %v", err)
	}

	// Listing unions shards.
	y := testExNode(t, "data/gamma", 128)
	if _, err := dir.PutExNode(y.Name, y, 0); err != nil {
		t.Fatal(err)
	}
	ents, err := dir.ListExNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "data/alpha bravo.txt" || ents[0].Version != 2 {
		t.Fatalf("list = %v", ents)
	}

	// A put that fails validation never reaches the wire.
	bad := exnode.New("bad", 10)
	bad.Add(&exnode.Mapping{Offset: 0, Length: 20})
	if _, err := dir.PutExNode("bad", bad, 0); err == nil {
		t.Fatal("invalid exnode accepted")
	}
	_ = replicas
}

// dput writes an entry straight to one replica, bypassing the quorum —
// how the tests manufacture a lagging replica.
func dput(t *testing.T, addr string, seq int64, shards int, name string, version int64, blob []byte) error {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	shard := ShardFor(name, shards)
	err = conn.WriteLine(opDirPut, wire.Itoa(seq), wire.Itoa(int64(shard)),
		wire.Quote(name), wire.Itoa(version), wire.Itoa(int64(len(blob))))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteBlob(blob); err != nil {
		t.Fatal(err)
	}
	_, err = conn.ReadStatus()
	return err
}

func dget(t *testing.T, addr string, seq int64, shards int, name string) (int64, []byte, error) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	shard := ShardFor(name, shards)
	if err := conn.WriteLine(opDirGet, wire.Itoa(seq), wire.Itoa(int64(shard)), wire.Quote(name)); err != nil {
		t.Fatal(err)
	}
	toks, err := conn.ReadStatus()
	if err != nil {
		return 0, nil, err
	}
	version, _ := wire.ParseInt("version", toks[0])
	n, _ := wire.ParseInt("len", toks[1])
	blob, err := conn.ReadBlob(n)
	if err != nil {
		t.Fatal(err)
	}
	return version, blob, nil
}

// A replica that missed a write (it was down, or the write quorum skipped
// it) converges through read repair the next time the name is read.
func TestReadRepairConvergesLaggingReplica(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	name := "repair/me"
	v1 := []byte("version-one")
	v2 := []byte("version-two")

	// All replicas at v1; then only the first two learn v2.
	for _, a := range addrs {
		if err := dput(t, a, 2, 4, name, 1, v1); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range addrs[:2] {
		if err := dput(t, a, 2, 4, name, 2, v2); err != nil {
			t.Fatal(err)
		}
	}
	blob, version, err := c.GetExNode(name)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || string(blob) != "version-two" {
		t.Fatalf("read = v%d %q, want freshest", version, blob)
	}
	// The lagging replica was repaired.
	gotV, gotBlob, err := dget(t, addrs[2], 2, 4, name)
	if err != nil {
		t.Fatal(err)
	}
	if gotV != 2 || string(gotBlob) != "version-two" {
		t.Fatalf("lagging replica after repair = v%d %q", gotV, gotBlob)
	}
	if c.Stats().Repairs.Load() != 1 {
		t.Fatalf("repairs = %d", c.Stats().Repairs.Load())
	}
}

func TestShardPlacementEnforced(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	name := "some/name"
	wrong := (ShardFor(name, 4) + 1) % 4
	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	err = conn.WriteLine(opDirPut, wire.Itoa(2), wire.Itoa(int64(wrong)),
		wire.Quote(name), wire.Itoa(1), wire.Itoa(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteBlob([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); !wire.IsRemote(err, wire.CodeBadRequest) {
		t.Fatalf("wrong-shard put err = %v, want BAD_REQUEST", err)
	}
}

func TestShardForStableAndSpread(t *testing.T) {
	hits := map[int]int{}
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("file-%d", i)
		s := ShardFor(name, DefaultShards)
		if s != ShardFor(name, DefaultShards) {
			t.Fatal("ShardFor not deterministic")
		}
		if s < 0 || s >= DefaultShards {
			t.Fatalf("shard %d out of range", s)
		}
		hits[s]++
	}
	if len(hits) != DefaultShards {
		t.Fatalf("only %d/%d shards hit", len(hits), DefaultShards)
	}
}

func TestClassifyTable(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassTolerated},
		{fmt.Errorf("op: %w", ErrMajorityLost), ClassDetected},
		{fmt.Errorf("op: %w", ErrStaleView), ClassDetected},
		{fmt.Errorf("op: %w", lbone.ErrNoRegistry), ClassDetected},
		{fmt.Errorf("op: %w", ErrVersionConflict), ClassUntolerated},
		{errors.New("segfault"), ClassUntolerated},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if ClassTolerated.String() != "tolerated" || ClassDetected.String() != "detected" ||
		ClassUntolerated.String() != "untolerated" {
		t.Fatal("class names")
	}
}

func TestReplicaMetricsPresent(t *testing.T) {
	_, replicas, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatal(err)
	}
	ms := replicas[0].Metrics()
	found := map[string]float64{}
	for _, m := range ms {
		found[m.Name] = m.Value
	}
	if found["registry_quorum_writes_total"] != 1 {
		t.Fatalf("quorum writes metric = %v", found["registry_quorum_writes_total"])
	}
	if found["registry_view_seq"] != 2 {
		t.Fatalf("view seq metric = %v", found["registry_view_seq"])
	}
	cm := c.Metrics()
	if len(cm) == 0 {
		t.Fatal("client metrics empty")
	}
}
