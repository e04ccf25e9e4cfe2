package registry

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/lbone"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// A server started with no member list is a view of one: its own bound
// address, dialable as printed, with a wildcard host rewritten to the
// machine's name. A client seeded with nothing but that address gets the
// whole control plane — registration, discovery, the exNode directory and
// the control table — through the same code a three-member group runs.
func TestLoneServerIsAOneMemberView(t *testing.T) {
	for _, listen := range []string{"127.0.0.1:0", ":0"} {
		t.Run(listen, func(t *testing.T) {
			if listen == ":0" {
				// The wildcard is advertised under the hostname; a host
				// that cannot resolve its own name cannot run this leg.
				if hn, err := os.Hostname(); err != nil {
					t.Skipf("no hostname: %v", err)
				} else if _, err := net.LookupHost(hn); err != nil {
					t.Skipf("hostname %q does not resolve: %v", hn, err)
				}
			}
			srv, rep, err := Serve(listen, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			v := rep.View()
			if v.Seq != 1 || len(v.Members) != 1 || v.Shards != DefaultShards || v.Quorum() != 1 {
				t.Fatalf("lone view = %+v", v)
			}
			probe, err := net.DialTimeout("tcp", v.Members[0], time.Second)
			if err != nil {
				t.Fatalf("the view's one member %q is not dialable: %v", v.Members[0], err)
			}
			defer probe.Close()

			c := quorumClient(v.Members)
			defer c.Close()
			if err := c.RegisterDepot(testDepot("UTK1")); err != nil {
				t.Fatal(err)
			}
			if got, err := c.Query(lbone.Requirements{}); err != nil || len(got) != 1 || got[0].Name != "UTK1" {
				t.Fatalf("query = %v, %v", got, err)
			}
			// One table: what the quorum registered, the classic LIST serves.
			classic := wire.NewConn(probe)
			if err := classic.WriteLine("LIST"); err != nil {
				t.Fatal(err)
			}
			if toks, err := classic.ReadStatus(); err != nil || len(toks) != 1 || toks[0] != "1" {
				t.Fatalf("classic LIST after a quorum register = OK %v, %v", toks, err)
			}
			dir := NewDirectory(c)
			x := testExNode(t, "files/lone", 512)
			if version, err := dir.PutExNode(x.Name, x, 0); err != nil || version != 1 {
				t.Fatalf("put = v%d, %v", version, err)
			}
			if got, version, err := dir.GetExNode(x.Name); err != nil || version != 1 || got.Size != 512 {
				t.Fatalf("get = %+v v%d, %v", got, version, err)
			}
			ci := lbone.ControlInfo{Addr: "utk1.example:9714", Component: "ibp-depot", Name: "UTK1"}
			if err := c.RegisterControl(ci); err != nil {
				t.Fatal(err)
			}
			if got, err := c.ListControls(); err != nil || len(got) != 1 || got[0] != ci {
				t.Fatalf("controls = %+v, %v", got, err)
			}
			if st := c.Stats(); st.Dials.Load() != 1 || st.ReplicaFails.Load() != 0 {
				t.Fatalf("dials = %d, replica failures = %d: want one session, no failures",
					st.Dials.Load(), st.ReplicaFails.Load())
			}
		})
	}
}

// DESIGN §9.3, detected row: no registry reachable at all. A dead lone
// server is lbone.ErrNoRegistry, classified detected, within one dial
// timeout. A client that never learned the view says so at once; one that
// read the depot table and then lost the server says so as soon as that
// read's snapshot has expired (inside the TTL the read still answers:
// tolerated).
func TestDeadLoneServerIsDetected(t *testing.T) {
	srv, _, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	const dialTimeout = 300 * time.Millisecond
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	warm := NewQuorumClient(srv.Addr(), WithClock(clk), WithTimeouts(dialTimeout, 2*time.Second))
	defer warm.Close()
	if _, err := warm.Query(lbone.Requirements{}); err != nil {
		t.Fatal(err)
	}
	cold := quorumClient([]string{srv.Addr()}) // same timeouts
	srv.Close()

	clk.Advance(depotSnapshotTTL - time.Nanosecond)
	if _, err := warm.Query(lbone.Requirements{}); Classify(err) != ClassTolerated {
		t.Errorf("lost the server, inside the snapshot TTL: %v, want the warm read's answer", err)
	}
	clk.Advance(time.Nanosecond)
	for name, c := range map[string]*QuorumClient{"never saw the view": cold, "lost the server": warm} {
		begin := time.Now()
		_, err := c.Query(lbone.Requirements{})
		if took := time.Since(begin); took > dialTimeout {
			t.Errorf("%s: failed after %v, want within one dial timeout (%v)", name, took, dialTimeout)
		}
		if Classify(err) != ClassDetected {
			t.Errorf("%s: Classify(%v) = %v, want detected", name, err, Classify(err))
		}
	}
	if _, err := cold.Query(lbone.Requirements{}); !errors.Is(err, lbone.ErrNoRegistry) {
		t.Errorf("cold client err = %v, want ErrNoRegistry", err)
	}
	if got, err := NewQuorumClient("").Query(lbone.Requirements{}); !errors.Is(err, lbone.ErrNoRegistry) || got != nil {
		t.Errorf("client with no addresses = %v, %v: want ErrNoRegistry, never an empty depot list", got, err)
	}
	if _, err := warm.ListControls(); !errors.Is(err, ErrMajorityLost) {
		t.Errorf("warm client err = %v, want ErrMajorityLost", err)
	}
}

// The control table rides the quorum like the depot table: a registration
// reaches every live member, survives the loss of a minority, and the
// list is the union of a majority's answers — so an endpoint only one
// member holds (it was registered there with the classic verb) is still
// listed while that member answers a read: the first two members in view
// order are asked, and a failed one brings in the third.
func TestControlTableThroughQuorum(t *testing.T) {
	servers, _, addrs := startGroup(t, 3)
	c := quorumClient(addrs)
	defer c.Close()
	a := lbone.ControlInfo{Addr: "a.example:9714", Component: "ibp-depot", Name: "A"}
	b := lbone.ControlInfo{Addr: "b.example:9791", Component: "maintaind", Name: "maintaind-0"}
	if err := c.RegisterControl(a); err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		s.WithRegistry(func(r *lbone.Registry) {
			if r.ControlLen() != 1 {
				t.Errorf("member %d holds %d control entries, want 1", i, r.ControlLen())
			}
		})
	}
	servers[1].WithRegistry(func(r *lbone.Registry) { r.RegisterControl(b) })
	if got, err := c.ListControls(); err != nil || len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("union list = %+v, %v", got, err)
	}

	servers[0].Close() // a minority, and one the next read asks: it fails over onto member 2
	if err := c.DeregisterControl(a.Addr); err != nil {
		t.Fatalf("deregister with 2/3 up: %v", err)
	}
	if got, err := c.ListControls(); err != nil || len(got) != 1 || got[0] != b {
		t.Fatalf("list with 2/3 up = %+v, %v", got, err)
	}
	servers[1].Close() // the majority
	if err := c.RegisterControl(a); !errors.Is(err, ErrMajorityLost) {
		t.Fatalf("register with 1/3 up = %v, want ErrMajorityLost", err)
	}
	if _, err := c.ListControls(); Classify(err) != ClassDetected {
		t.Fatalf("list with 1/3 up = %v, want a detected failure", err)
	}
}
