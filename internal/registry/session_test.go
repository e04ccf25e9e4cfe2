package registry

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// countingDialer counts dials through the system network.
type countingDialer struct{ n atomic.Int64 }

func (d *countingDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.n.Add(1)
	return netx.System().Dial(network, addr, timeout)
}

// A steady client dials each replica once: every later exchange, whatever
// its verb, rides the session the first one parked.
func TestSessionsReusedAcrossOperations(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	dialer := &countingDialer{}
	// A clock that stands still: every query after the first falls inside
	// the depot-table snapshot's TTL, however slowly the test runs.
	clk := vclock.NewVirtual(time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	c := NewQuorumClient(strings.Join(addrs, ","), WithDialer(dialer), WithClock(clk),
		WithTimeouts(300*time.Millisecond, 2*time.Second))
	defer c.Close()

	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatal(err)
	}
	blob := []byte("<exnode/>")
	for i := 1; i <= 100; i++ {
		switch i % 3 {
		case 0:
			if err := c.PutExNode("files/reuse", int64(i/3), blob); err != nil {
				t.Fatalf("op %d put: %v", i, err)
			}
		case 1:
			if _, _, err := c.GetExNode("files/reuse"); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d get: %v", i, err)
			}
		default:
			if got, err := c.Query(lbone.Requirements{}); err != nil || len(got) != 1 {
				t.Fatalf("op %d query: %v %v", i, got, err)
			}
		}
	}
	if n := dialer.n.Load(); n > 3 {
		t.Fatalf("100 operations made %d dials, want <= 3 (one per replica)", n)
	}
	st := c.Stats()
	if st.Dials.Load() != dialer.n.Load() {
		t.Fatalf("Dials = %d, dialer saw %d", st.Dials.Load(), dialer.n.Load())
	}
	// Of the 33 queries the first reads a majority and the other 32 are
	// answered from its snapshot: 1 register + 33 puts + 34 gets + 1 query
	// = 69 quorum ops. Writes reach all three members and reads the two a
	// majority needs (every answer agrees on a healthy group), so with the
	// one view fetch the exchanges are 3 (view) + 3 (register) + 33×3
	// (puts) + 34×2 (gets) + 2 (query) = 175, three of them on fresh dials.
	if st.Ops.Load() != 69 || st.SnapshotHits.Load() != 32 {
		t.Fatalf("Ops = %d, SnapshotHits = %d, want 69 and 32", st.Ops.Load(), st.SnapshotHits.Load())
	}
	if want := int64(175 - 3); st.Reused.Load() != want {
		t.Fatalf("Reused = %d, want %d", st.Reused.Load(), want)
	}
	if st.ReplicaFails.Load() != 0 {
		t.Fatalf("ReplicaFails = %d on a healthy group", st.ReplicaFails.Load())
	}
}

// The client-side exposition, pinned exactly: one register on a healthy
// group is a view fetch on three fresh dials and a write pass on the
// three sessions those parked.
func TestClientMetricsGolden(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	obs.WriteMetrics(&b, c.Metrics())
	want := `# HELP registry_client_ops_total Quorum operations attempted.
# TYPE registry_client_ops_total counter
registry_client_ops_total 1
# HELP registry_client_replica_failures_total Per-replica attempt failures.
# TYPE registry_client_replica_failures_total counter
registry_client_replica_failures_total 0
# HELP registry_client_failovers_total Ops that succeeded despite replica failures (tolerated).
# TYPE registry_client_failovers_total counter
registry_client_failovers_total 0
# HELP registry_client_stale_retries_total Ops retried after a STALE_VIEW view refresh.
# TYPE registry_client_stale_retries_total counter
registry_client_stale_retries_total 0
# HELP registry_client_majority_lost_total Ops failed fast on majority loss (detected).
# TYPE registry_client_majority_lost_total counter
registry_client_majority_lost_total 0
# HELP registry_client_repairs_total Read-repair writes pushed to lagging replicas.
# TYPE registry_client_repairs_total counter
registry_client_repairs_total 0
# HELP registry_client_dials_total Connections dialed to replicas, failed dials included.
# TYPE registry_client_dials_total counter
registry_client_dials_total 3
# HELP registry_client_conn_reused_total Replica exchanges that rode a parked session.
# TYPE registry_client_conn_reused_total counter
registry_client_conn_reused_total 3
# HELP registry_client_query_snapshot_hits_total Depot queries answered from the depot-table snapshot, no quorum operation.
# TYPE registry_client_query_snapshot_hits_total counter
registry_client_query_snapshot_hits_total 0
`
	if b.String() != want {
		t.Errorf("client exposition drifted.\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// A minority replica — the first in view order, so a read asks it — dies
// while its session is parked. The session looks
// alive at checkout (on a simulated link only the transfer can fail), so
// the request is written, fails, and is not re-sent: one replica failure,
// masked by the quorum, exactly as a failed dial would have been.
func TestParkedSessionToDeadMinorityIsOneTolerated(t *testing.T) {
	start := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtual(start)
	// Own model, not the testbed: it shapes registry replicas only, no depots.
	model := faultnet.NewModel(clk, 3)
	model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})

	_, _, addrs := startGroup(t, 3)
	for i, a := range addrs {
		st := faultnet.DepotState{Site: geo.UTK.Name}
		if i == 0 {
			st.Avail = faultnet.Windows{Down: []faultnet.Window{{From: start.Add(time.Hour), To: start.Add(6 * time.Hour)}}}
		}
		model.AddDepot(a, st)
	}
	c := NewQuorumClient(strings.Join(addrs, ","),
		WithDialer(model.DialerFrom(geo.UTK.Name)), WithClock(clk),
		WithTimeouts(2*time.Second, 30*time.Second))
	defer c.Close()

	if err := c.PutExNode("files/minority", 1, []byte("<exnode/>")); err != nil {
		t.Fatalf("healthy put: %v", err)
	}
	st := c.Stats()
	if st.ReplicaFails.Load() != 0 || st.Dials.Load() != 3 {
		t.Fatalf("healthy phase: %d replica failures, %d dials", st.ReplicaFails.Load(), st.Dials.Load())
	}

	clk.Advance(90 * time.Minute) // replica 0 is down, its session still parked
	blob, version, err := c.GetExNode("files/minority")
	if err != nil || version != 1 || string(blob) != "<exnode/>" {
		t.Fatalf("get with a dead minority: v%d %q %v", version, blob, err)
	}
	if st.ReplicaFails.Load() != 1 || st.Failovers.Load() != 1 {
		t.Fatalf("ReplicaFails = %d, Failovers = %d, want 1 and 1", st.ReplicaFails.Load(), st.Failovers.Load())
	}
	if st.MajorityLost.Load() != 0 {
		t.Fatalf("MajorityLost = %d", st.MajorityLost.Load())
	}
}

// restartAll stops each replica's server and brings a new one up on the
// same address, bound to the same Replica (so the directory survives, as
// it would on a replica with a disk). It returns once each of the
// client's parked sessions has seen its replica hang up: the FIN crosses
// loopback asynchronously, and a real restart takes far longer than that.
func restartAll(t *testing.T, c *QuorumClient, servers []*lbone.Server, reps []*Replica) {
	t.Helper()
	for i, old := range servers {
		addr := old.Addr()
		old.Close()
		srv, err := lbone.ServeRegistry(addr, lbone.ServerConfig{Extension: reps[i].Handle})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		reps[i].Bind(srv)
		servers[i] = srv

		conn := c.sessions.Get(addr)
		if conn == nil {
			t.Fatalf("no session parked for replica %d", i)
		}
		for deadline := time.Now().Add(5 * time.Second); conn.CheckIdle() == nil; {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d's hangup never reached its parked session", i)
			}
			time.Sleep(time.Millisecond)
		}
		c.sessions.Put(addr, conn)
	}
}

// Every replica restarts while the client's sessions are parked. The
// stale sessions are found out at checkout, before anything is written,
// so the put is sent once per replica on fresh connections — a put that
// was written to a dead session and then retried would come back as a
// CONFLICT with itself, or lose the majority outright.
func TestRestartedReplicasNeverSeeAPutTwice(t *testing.T) {
	servers, reps, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()

	if err := c.PutExNode("files/restart", 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	restartAll(t, c, servers, reps)
	if err := c.PutExNode("files/restart", 2, []byte("v2")); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	for i, rep := range reps {
		if puts, conflicts := rep.Stats().DirPuts.Load(), rep.Stats().Conflicts.Load(); puts != 2 || conflicts != 0 {
			t.Fatalf("replica %d applied %d puts with %d conflicts, want 2 (v1, v2) and 0", i, puts, conflicts)
		}
	}

	restartAll(t, c, servers, reps)
	blob, version, err := c.GetExNode("files/restart")
	if err != nil || version != 2 || string(blob) != "v2" {
		t.Fatalf("get after restart: v%d %q %v", version, blob, err)
	}
	st := c.Stats()
	if st.ReplicaFails.Load() != 0 || st.MajorityLost.Load() != 0 {
		t.Fatalf("restarts surfaced as %d replica failures, %d majority losses",
			st.ReplicaFails.Load(), st.MajorityLost.Load())
	}
	// The view fetch dials all three members and the first put reuses those
	// three sessions. After the first restart the put finds every parked
	// session dead and dials all three afresh; after the second the get asks
	// only the two members a majority read needs, and dials those two.
	if st.Dials.Load() != 3+3+2 || st.Reused.Load() != 3 {
		t.Fatalf("Dials = %d, Reused = %d, want 8 (3 view + 3 put + 2 get) and 3 (the first put)",
			st.Dials.Load(), st.Reused.Load())
	}
}

// A replica's Close must not wait on a quorum client's parked session.
func TestReplicaCloseSeversParkedSessions(t *testing.T) {
	servers, _, addrs := startGroup(t, 1)
	c := quorumClient(addrs)
	if _, err := c.RefreshView(); err != nil { // parks one session, never closed
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		servers[0].Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("replica Close still waiting on a parked client session after 1s")
	}
}

// Mixed operations from many goroutines on one client (run under -race
// in tier-1): sessions are checked out exclusively, so exchanges never
// interleave on a connection and every operation succeeds.
func TestSessionsConcurrentHammer(t *testing.T) {
	_, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()
	if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("files/hammer-%d", w)
			for i := 1; i <= rounds; i++ {
				want := fmt.Sprintf("w%d v%d", w, i)
				if err := c.PutExNode(name, int64(i), []byte(want)); err != nil {
					t.Errorf("worker %d put v%d: %v", w, i, err)
					return
				}
				blob, version, err := c.GetExNode(name)
				if err != nil || version != int64(i) || string(blob) != want {
					t.Errorf("worker %d get: v%d %q %v, want v%d %q", w, version, blob, err, i, want)
					return
				}
				if got, err := c.Query(lbone.Requirements{}); err != nil || len(got) != 1 {
					t.Errorf("worker %d query: %v %v", w, got, err)
					return
				}
				if i%10 == 0 {
					if _, err := c.ListExNodes(); err != nil {
						t.Errorf("worker %d list: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.ReplicaFails.Load() != 0 {
		t.Fatalf("ReplicaFails = %d on a healthy group", st.ReplicaFails.Load())
	}
}
