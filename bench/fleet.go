package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/depot"
	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/netx"
	"repro/internal/registry"
)

// The fleet runs inside the benchmark process: depots and registry
// replicas are goroutines listening on 127.0.0.1:0, so every byte crosses
// loopback TCP and nothing else.

const (
	backendMem  = "mem"
	backendFile = "file"
	backendPack = "pack"

	depotCapacity = 16 << 30
	// packBundleCap keeps pack bundles small enough that the 15 s window
	// seals several and the dead-bundle GC runs.
	packBundleCap = 64 << 20
)

type depotNode struct {
	d      *depot.Depot
	info   lbone.DepotInfo
	kind   string
	dir    string
	secret []byte
	pack   *depot.PackBackend
	closed bool
	// past holds the counters of this node's earlier depots: a wiped
	// depot comes back as a new depot.Depot counting from zero.
	pastConnects, pastErrors int64
}

type fleet struct {
	tmp    string
	depots []*depotNode
	// mu guards each node's d, closed and past counters: the repair
	// workload's operator wipes depots while the benchmark reads them.
	mu sync.Mutex

	regServers []*lbone.Server
	regAddrs   []string
}

// newFleet makes the temp dir every on-disk backend lives under.
func newFleet() (*fleet, error) {
	tmp, err := os.MkdirTemp("", "stackbench-")
	if err != nil {
		return nil, fmt.Errorf("fleet temp dir: %w", err)
	}
	return &fleet{tmp: tmp}, nil
}

func (f *fleet) newBackend(n *depotNode) (depot.Backend, error) {
	switch n.kind {
	case backendMem:
		return depot.NewMemBackend(), nil
	case backendFile:
		return depot.NewFileBackend(n.dir)
	case backendPack:
		pb, err := depot.NewPackBackend(n.dir, packBundleCap)
		n.pack = pb
		return pb, err
	}
	return nil, fmt.Errorf("unknown backend %q", n.kind)
}

// addDepots starts n depots of one backend kind. locs gives each depot's
// coordinates (static ranking orders candidates by distance from the
// client); nil puts them all at the client's site.
func (f *fleet) addDepots(n int, kind string, locs []geo.Point) error {
	for i := 0; i < n; i++ {
		idx := len(f.depots)
		node := &depotNode{
			kind:   kind,
			dir:    filepath.Join(f.tmp, fmt.Sprintf("depot-%d", idx)),
			secret: []byte(fmt.Sprintf("stackbench-%d", idx)),
		}
		be, err := f.newBackend(node)
		if err != nil {
			return err
		}
		d, err := depot.Serve("127.0.0.1:0", depot.Config{
			Secret: node.secret, Capacity: depotCapacity, Backend: be,
		})
		if err != nil {
			return err
		}
		loc := geo.UTK.Loc
		if locs != nil {
			loc = locs[i]
		}
		node.d = d
		node.info = lbone.DepotInfo{
			Addr: d.Addr(), Name: fmt.Sprintf("D%d", idx), Site: geo.UTK.Name, Loc: loc,
			Capacity: depotCapacity, MaxDuration: 30 * 24 * time.Hour,
		}
		f.depots = append(f.depots, node)
	}
	return nil
}

func (f *fleet) infos() []lbone.DepotInfo {
	out := make([]lbone.DepotInfo, len(f.depots))
	for i, n := range f.depots {
		out[i] = n.info
	}
	return out
}

// kill really closes depot i: its listener and every open connection.
func (f *fleet) kill(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.depots[i]
	if !n.closed {
		n.d.Close()
		n.closed = true
	}
}

// wipe closes depot i and brings it back at the same address with an empty
// store: a crashed depot whose disk was replaced. Capabilities minted
// before the wipe verify but name nothing.
func (f *fleet) wipe(i int) error {
	n := f.depots[i]
	f.kill(i)
	if n.kind != backendMem {
		return fmt.Errorf("wipe supports the mem backend only, depot %d is %s", i, n.kind)
	}
	var d *depot.Depot
	var err error
	// The old listener's port is free once Close returns; a bind may still
	// lose a race with the kernel releasing it.
	for try := 0; try < 50; try++ {
		d, err = depot.Serve(n.info.Addr, depot.Config{
			Secret: n.secret, Capacity: depotCapacity, Backend: depot.NewMemBackend(),
		})
		if err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("restarting depot %d on %s: %w", i, n.info.Addr, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := n.d.Metrics().Snapshot()
	n.pastConnects += old.Connects
	n.pastErrors += old.Errors + old.Violations
	n.d, n.closed = d, false
	return nil
}

// depotCounters sums, over every depot the fleet has ever run, the
// connections accepted and the requests that ended in an error or a
// protocol violation.
func (f *fleet) depotCounters() (connects, failed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.depots {
		s := n.d.Metrics().Snapshot()
		connects += n.pastConnects + s.Connects
		failed += n.pastErrors + s.Errors + s.Violations
	}
	return connects, failed
}

// usedBytes sums the committed capacity of every live depot.
func (f *fleet) usedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum int64
	for _, n := range f.depots {
		if !n.closed {
			sum += n.d.UsedBytes()
		}
	}
	return sum
}

// addRegistry starts an n-replica quorum group. Listen addresses are only
// known after binding, so each replica starts in a placeholder view and the
// real membership arrives through Reconfigure, as in the repo's own tests.
func (f *fleet) addRegistry(n, shards int) error {
	reps := make([]*registry.Replica, n)
	for i := 0; i < n; i++ {
		srv, rep, err := registry.Serve("127.0.0.1:0", registry.Config{
			Members: []string{"placeholder:0"}, Seq: 1, Shards: shards,
		})
		if err != nil {
			return err
		}
		f.regServers = append(f.regServers, srv)
		f.regAddrs = append(f.regAddrs, srv.Addr())
		reps[i] = rep
	}
	view := registry.View{Seq: 2, Members: f.regAddrs, Shards: shards}
	for _, rep := range reps {
		if err := rep.Reconfigure(view); err != nil {
			return err
		}
	}
	return nil
}

// quorumClient builds a client of the registry group whose dials are
// counted, and registers every depot through it.
func (f *fleet) quorumClient(dials *atomic.Int64) (*registry.QuorumClient, error) {
	qc := registry.NewQuorumClient(strings.Join(f.regAddrs, ","),
		registry.WithDialer(countingDialer{dials}),
		registry.WithTimeouts(2*time.Second, 10*time.Second))
	for _, n := range f.depots {
		if err := qc.RegisterDepot(n.info); err != nil {
			return nil, fmt.Errorf("registering %s: %w", n.info.Name, err)
		}
	}
	return qc, nil
}

// close stops every daemon and removes the temp dir. Safe after a failed
// set-up: whatever was started is stopped.
func (f *fleet) close() {
	for i := range f.depots {
		f.kill(i)
		if p := f.depots[i].pack; p != nil {
			p.Close()
		}
	}
	for _, s := range f.regServers {
		s.Close()
	}
	os.RemoveAll(f.tmp)
}

// resetDialer dials through the system network and closes with a reset,
// which leaves no TIME_WAIT socket behind. The clients that dial per call
// (the quorum client: six dials an operation; the IBP client of
// repair_foreground: one a verb) close two to seven thousand connections a
// second, which fills the host's TIME_WAIT table (65536 sockets, a minute
// each) ten seconds into a run. While it fills, one run in six or so lands
// in a mode where every operation takes 0.45 ms longer, for the whole run
// (small_named 1.1 -> 1.6 ms, repair_foreground 2.0 -> 2.5 ms); once the
// table is full the kernel drops new entries and the mode goes away, so
// which run is the slow one depends on what ran in the minute before it.
// That is the state of this host's socket tables, not of the code under
// test. With resets the table stays empty, and small_named has not shown
// the mode in thirty runs since.
type resetDialer struct{}

func (resetDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := netx.System().Dial(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return resetOnClose{conn}, nil
}

type resetOnClose struct{ net.Conn }

func (c resetOnClose) Close() error {
	if t, ok := c.Conn.(*net.TCPConn); ok {
		t.SetLinger(0) //nolint:errcheck // Close reports what matters
	}
	return c.Conn.Close()
}

// countingDialer counts the dials the quorum client makes.
type countingDialer struct{ n *atomic.Int64 }

func (c countingDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c.n.Add(1)
	return resetDialer{}.Dial(network, addr, timeout)
}

// slowDialer makes one depot slow, not dead: every response from slowAddr
// is held back by delay. TRACE negotiation lines pass undelayed so the
// traced run meets the same fault as the untraced one.
type slowDialer struct {
	slowAddr string
	delay    time.Duration
}

func (s slowDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := netx.System().Dial(network, addr, timeout)
	if err != nil || addr != s.slowAddr {
		return c, err
	}
	return &slowConn{Conn: c, delay: s.delay, closed: make(chan struct{})}, nil
}

type slowConn struct {
	net.Conn
	delay  time.Duration
	mu     sync.Mutex
	owed   bool
	closed chan struct{}
	once   sync.Once
}

var traceVerb = []byte("TRACE ")

func (c *slowConn) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(p, traceVerb) {
		c.mu.Lock()
		c.owed = true
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// Read holds the first read after a request back by the delay. Closing
// the connection ends the wait at once, as it would end a read blocked on
// a slow network: that is how the client cancels the loser of a hedge.
func (c *slowConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	owed := c.owed
	c.owed = false
	c.mu.Unlock()
	if owed {
		t := time.NewTimer(c.delay)
		select {
		case <-t.C:
		case <-c.closed:
			t.Stop()
		}
	}
	return c.Conn.Read(p)
}

func (c *slowConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// liveSource is a DepotSource over the fleet's own depot table: the L-Bone
// view without the network, with depots dropping out when the benchmark
// kills them (a registry's TTL would take minutes). first, when set, names
// the depot to list ahead of the proximity order.
type liveSource struct {
	mu    sync.Mutex
	infos []lbone.DepotInfo
	first string
}

func (s *liveSource) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	s.mu.Lock()
	out := append([]lbone.DepotInfo(nil), s.infos...)
	first := s.first
	s.mu.Unlock()
	if req.Near != nil {
		geo.SortByDistance(*req.Near, out)
	}
	if first != "" {
		for i, d := range out {
			if d.Addr == first {
				copy(out[1:i+1], out[:i])
				out[0] = d
				break
			}
		}
	}
	return out, nil
}

func (s *liveSource) remove(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, d := range s.infos {
		if d.Addr == addr {
			s.infos = append(s.infos[:i:i], s.infos[i+1:]...)
			return
		}
	}
}

func (s *liveSource) setFirst(addr string) {
	s.mu.Lock()
	s.first = addr
	s.mu.Unlock()
}
