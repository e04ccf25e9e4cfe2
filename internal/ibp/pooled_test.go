package ibp_test

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/netx"
)

// wrappingDialer dials through the system network and hands back the
// connection inside a struct{ net.Conn }, which hides the socket the way
// a dialer that overrides Close does. It counts its dials.
type wrappingDialer struct{ dials *atomic.Int64 }

type wrapped struct{ net.Conn }

func (d wrappingDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.dials.Add(1)
	conn, err := netx.System().Dial(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return wrapped{conn}, nil
}

// TestPooledClientSurvivesDepotWipe restarts a mem depot at the same
// address with the same secret while a pooled client has connections
// parked to it, the way a depot process dies and comes back empty. The
// client's next ALLOCATE, STORE and DELETE must not go out on a parked
// connection to the dead process: none of them may be re-sent, so one
// written there would fail, and a client that loses a STORE or DELETE
// that way strands bytes the depot still counts.
func TestPooledClientSurvivesDepotWipe(t *testing.T) {
	secret := []byte("pooled-wipe-test")
	serve := func(addr string) *depot.Depot {
		t.Helper()
		var d *depot.Depot
		var err error
		// The old listener's port is free once Close returns; a bind may
		// still lose a race with the kernel releasing it.
		for try := 0; try < 50; try++ {
			if d, err = depot.Serve(addr, depot.Config{Secret: secret, Capacity: 64 << 20}); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	d := serve("127.0.0.1:0")
	addr := d.Addr()
	var dials atomic.Int64
	c := ibp.NewClient(ibp.WithPooling(4), ibp.WithDialer(wrappingDialer{&dials}))
	defer c.Close()

	const size = 64 << 10
	payload := bytes.Repeat([]byte{0x5a}, size)
	upload := func(n int) []ibp.CapSet {
		t.Helper()
		var sets []ibp.CapSet
		for i := 0; i < n; i++ {
			set, err := c.Allocate(addr, size, time.Hour, ibp.Hard)
			if err != nil {
				t.Fatalf("allocate %d: %v", i, err)
			}
			if _, err := c.Store(set.Write, payload); err != nil {
				t.Fatalf("store %d: %v", i, err)
			}
			sets = append(sets, set)
		}
		return sets
	}
	for round := 0; round < 3; round++ {
		upload(3) // lost with the process that held them
		d.Close()
		d = serve(addr)
		before := dials.Load()
		named := upload(4)
		for _, set := range named[:2] {
			if refs, err := c.Delete(set.Manage); err != nil || refs != 0 {
				t.Fatalf("round %d: retire: refs %d, err %v", round, refs, err)
			}
		}
		if used, want := d.UsedBytes(), int64(len(named)-2)*size; used != want {
			t.Fatalf("round %d: depot holds %d bytes, the client names %d", round, used, want)
		}
		// The stale connection is found on checkout, before any request
		// is written to it, and the one fresh connection serves the rest.
		if n := dials.Load() - before; n != 1 {
			t.Fatalf("round %d: %d dials after the restart, want 1", round, n)
		}
		for _, set := range named[2:] {
			if got, err := c.Load(set.Read, 0, size); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("round %d: load after the restart: err %v", round, err)
			}
		}
	}
}
