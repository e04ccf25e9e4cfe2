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
	// Index i is the view's i-th member (a view's members are sorted): a
	// read asks members in view order, so a test can name the ones it reaches.
	at := map[string]int{}
	for i, a := range addrs {
		at[a] = i
	}
	addrs = NormalizeMembers(addrs)
	bySrv, byRep := servers, replicas
	servers, replicas = make([]*lbone.Server, n), make([]*Replica, n)
	for i, a := range addrs {
		servers[i], replicas[i] = bySrv[at[a]], byRep[at[a]]
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
// it) converges: through read repair when a read reaches it, else through
// the next write. A read asks the first two members in view order first.
func TestReadRepairConvergesLaggingReplica(t *testing.T) {
	const name = "repair/me"
	// setup puts every member at v1 and all but the lagging one at v2.
	setup := func(t *testing.T, lagging int) ([]*Replica, []string, *QuorumClient) {
		_, reps, addrs := startGroup(t, 3)
		for i, a := range addrs {
			if err := dput(t, a, 2, 4, name, 1, []byte("version-one")); err != nil {
				t.Fatal(err)
			}
			if i == lagging {
				continue
			}
			if err := dput(t, a, 2, 4, name, 2, []byte("version-two")); err != nil {
				t.Fatal(err)
			}
		}
		c := quorumClient(addrs)
		t.Cleanup(func() { c.Close() })
		blob, version, err := c.GetExNode(name)
		if err != nil || version != 2 || string(blob) != "version-two" {
			t.Fatalf("read = v%d %q %v, want the majority's v2", version, blob, err)
		}
		return reps, addrs, c
	}
	expect := func(t *testing.T, addr string, version int64, blob string) {
		t.Helper()
		if gotV, gotBlob, err := dget(t, addr, 2, 4, name); err != nil || gotV != version || string(gotBlob) != blob {
			t.Fatalf("lagging replica = v%d %q %v, want v%d %q", gotV, gotBlob, err, version, blob)
		}
	}

	t.Run("inside the read majority it is repaired on read", func(t *testing.T) {
		// Member 0 answers v1, member 1 v2: they disagree, member 2 is
		// asked and sides with member 1, and the winner goes back to 0.
		_, addrs, c := setup(t, 0)
		expect(t, addrs[0], 2, "version-two")
		if c.Stats().Repairs.Load() != 1 {
			t.Fatalf("repairs = %d, want 1", c.Stats().Repairs.Load())
		}
	})
	t.Run("outside the read majority it catches up on the next write", func(t *testing.T) {
		reps, addrs, c := setup(t, 2)
		if n := reps[2].Stats().DirGets.Load(); n != 0 || c.Stats().Repairs.Load() != 0 {
			t.Fatalf("the agreeing majority's read reached member 2 %d times, made %d repairs; want 0 and 0",
				n, c.Stats().Repairs.Load())
		}
		expect(t, addrs[2], 1, "version-one")
		if err := c.PutExNode(name, 3, []byte("version-three")); err != nil {
			t.Fatal(err)
		}
		expect(t, addrs[2], 3, "version-three")
	})
}

// Finding 4, read half: two writers at one version left the first member
// in view order with the loser's blob and the other two with the winner's.
// The two answers a read asks for first disagree, so the third member is
// asked, and the blob the majority holds is returned — never whichever
// member happened to answer first. (Making the loser's replica converge
// needs replica-side ordering: DPUT at an equal version is a CONFLICT.)
func TestReadReturnsMajorityBlobAtEqualVersion(t *testing.T) {
	_, reps, addrs := startGroup(t, 3)
	const name = "cas/split"
	for i, a := range addrs {
		blob := "<exnode who=\"winner\"/>"
		if i == 0 {
			blob = "<exnode who=\"loser\"/>"
		}
		if err := dput(t, a, 2, 4, name, 1, []byte(blob)); err != nil {
			t.Fatal(err)
		}
	}
	c := quorumClient(addrs)
	defer c.Close()
	for i := 0; i < 3; i++ {
		blob, version, err := c.GetExNode(name)
		if err != nil || version != 1 || string(blob) != "<exnode who=\"winner\"/>" {
			t.Fatalf("read %d = v%d %q %v, want the majority's v1 winner", i, version, blob, err)
		}
	}
	for i, rep := range reps {
		if n := rep.Stats().DirGets.Load(); n != 3 {
			t.Fatalf("member %d served %d DGETs for 3 reads, want 3: a split read asks everyone", i, n)
		}
	}
	if n := c.Stats().Repairs.Load(); n != 0 {
		t.Fatalf("repairs = %d: an equal-version loser is not repaired by DPUT", n)
	}
}

// Replicas keep their directory in memory, so a member that restarted
// answers NOT_FOUND for names the others hold. Here only member 1 holds v1:
// member 0 missed the put and member 2 restarted empty. Members 0 and 2
// agree on NOT_FOUND, but a fresher answer is in hand, so the read returns
// v1 and repairs both — and a writer that re-read then cannot put a second,
// different v1 past member 1's CONFLICT.
func TestReadPrefersFresherAnswerOverAgreeingMisses(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	const name = "restart/survivor"
	if err := dput(t, addrs[1], 2, 4, name, 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c := quorumClient(addrs)
	defer c.Close()
	if blob, version, err := c.GetExNode(name); err != nil || version != 1 || string(blob) != "v1" {
		t.Fatalf("read = v%d %q %v, want member 1's v1", version, blob, err)
	}
	if n := c.Stats().Repairs.Load(); n != 2 {
		t.Fatalf("repairs = %d, want 2 (members 0 and 2)", n)
	}
	for _, i := range []int{0, 2} {
		if version, blob, err := dget(t, addrs[i], 2, 4, name); err != nil || version != 1 || string(blob) != "v1" {
			t.Fatalf("member %d after the read = v%d %q %v, want v1", i, version, blob, err)
		}
	}
	if err := c.PutExNode(name, 1, []byte("forked v1")); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("second put of v1 = %v, want ErrVersionConflict", err)
	}
}

// A read that meets STALE_VIEW refreshes and settles under the new view:
// the lagging member it reads is repaired with the new view's stamp, which
// the replicas accept.
func TestReadRepairAfterStaleViewUsesTheNewView(t *testing.T) {
	_, reps, addrs := startGroup(t, 3)
	const name = "stale/repair"
	for i, a := range addrs {
		if err := dput(t, a, 2, 4, name, 1, []byte("version-one")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		if err := dput(t, a, 2, 4, name, 2, []byte("version-two")); err != nil {
			t.Fatal(err)
		}
	}
	c := quorumClient(addrs)
	defer c.Close()
	if _, err := c.RefreshView(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := rep.Reconfigure(View{Seq: 3, Members: addrs, Shards: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if blob, version, err := c.GetExNode(name); err != nil || version != 2 || string(blob) != "version-two" {
		t.Fatalf("read across reconfiguration = v%d %q %v, want v2", version, blob, err)
	}
	if st := c.Stats(); st.StaleRetries.Load() != 1 || st.Repairs.Load() != 1 {
		t.Fatalf("stale retries = %d, repairs = %d, want 1 and 1", st.StaleRetries.Load(), st.Repairs.Load())
	}
	if version, blob, err := dget(t, addrs[0], 3, 4, name); err != nil || version != 2 || string(blob) != "version-two" {
		t.Fatalf("lagging member after the read = v%d %q %v, want v2", version, blob, err)
	}
}

// A healthy read costs a majority of DGETs, not the whole view; a write
// still reaches every member. With the first member in view order down, a
// read still succeeds, by one failover onto the third member.
func TestReadAsksOnlyAMajority(t *testing.T) {
	servers, reps, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()
	sum := func() (gets, puts int64) {
		for _, rep := range reps {
			gets += rep.Stats().DirGets.Load()
			puts += rep.Stats().DirPuts.Load()
		}
		return gets, puts
	}
	for i := 1; i <= 50; i++ {
		if err := c.PutExNode("files/majority", int64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if blob, version, err := c.GetExNode("files/majority"); err != nil || version != 50 || string(blob) != "v50" {
			t.Fatalf("get %d = v%d %q %v", i, version, blob, err)
		}
	}
	if gets, puts := sum(); gets != 200 || puts != 150 {
		t.Fatalf("100 gets and 50 puts cost %d DGETs and %d DPUTs, want 200 and 150", gets, puts)
	}

	servers[0].Close()
	st := c.Stats()
	failovers, fails := st.Failovers.Load(), st.ReplicaFails.Load()
	gets0, _ := sum()
	for i := 0; i < 10; i++ {
		if blob, version, err := c.GetExNode("files/majority"); err != nil || version != 50 || string(blob) != "v50" {
			t.Fatalf("get %d with member 0 down = v%d %q %v", i, version, blob, err)
		}
	}
	if got := st.Failovers.Load() - failovers; got != 10 {
		t.Fatalf("10 reads with member 0 down counted %d failovers, want 10", got)
	}
	if got := st.ReplicaFails.Load() - fails; got != 10 {
		t.Fatalf("10 reads with member 0 down counted %d replica failures, want 10", got)
	}
	if gets, _ := sum(); gets-gets0 != 20 || reps[2].Stats().DirGets.Load() != 10 {
		t.Fatalf("10 reads with member 0 down cost %d DGETs (%d on member 2), want 20 (10)",
			gets-gets0, reps[2].Stats().DirGets.Load())
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
