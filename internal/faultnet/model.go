package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netx"
	"repro/internal/vclock"
)

// Link describes simulated WAN conditions between two sites.
type Link struct {
	// RTT is the round-trip latency charged once per request/response
	// exchange and at connection setup.
	RTT time.Duration
	// Mbps is the nominal bandwidth in megabits per second.
	Mbps float64
	// JitterFrac randomizes per-connection effective bandwidth by
	// ±JitterFrac (e.g. 0.3 → uniform in [0.7x, 1.3x]).
	JitterFrac float64
	// Avail is the link's outage process (nil = always up).
	Avail Availability
}

func (l Link) avail() Availability {
	if l.Avail == nil {
		return AlwaysUp{}
	}
	return l.Avail
}

// DepotState is a simulated depot's placement and failure behaviour.
type DepotState struct {
	// Site is the site name the depot lives at.
	Site string
	// Avail is the depot process's outage schedule (nil = always up).
	Avail Availability
	// CorruptReads, when true, flips one byte in every payload read from
	// this depot — the fault the end-to-end checksums exist to catch.
	CorruptReads bool
}

func (d DepotState) avail() Availability {
	if d.Avail == nil {
		return AlwaysUp{}
	}
	return d.Avail
}

type sitePair struct{ src, dst string }

// Model is the simulated network: depots placed at sites, links between
// sites, and a clock that simulated transfer time advances.
type Model struct {
	mu     sync.Mutex
	clock  vclock.Clock
	rng    *rand.Rand
	pacing atomic.Int64 // wall-pacing divisor; 0 = off (see SetWallPacing)
	links  map[sitePair]Link
	depots map[string]DepotState // keyed by depot address
	// DefaultLink applies to site pairs with no explicit entry.
	defaultLink Link
	// LocalLink applies within a site.
	localLink Link
}

// NewModel creates a model over the given clock (required; use the
// experiment's virtual clock) seeded for deterministic jitter.
func NewModel(clock vclock.Clock, seed int64) *Model {
	return &Model{
		clock:       clock,
		rng:         rand.New(rand.NewSource(seed)),
		links:       make(map[sitePair]Link),
		depots:      make(map[string]DepotState),
		defaultLink: Link{RTT: 60 * time.Millisecond, Mbps: 5},
		localLink:   Link{RTT: time.Millisecond, Mbps: 100},
	}
}

// SetDefaultLink sets conditions for site pairs without an explicit link.
func (m *Model) SetDefaultLink(l Link) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.defaultLink = l
}

// SetLocalLink sets conditions for connections within one site.
func (m *Model) SetLocalLink(l Link) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.localLink = l
}

// SetLink sets directed conditions from site src to site dst. The reverse
// direction falls back to this entry when it has none of its own.
func (m *Model) SetLink(src, dst string, l Link) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.links[sitePair{src, dst}] = l
}

// AddDepot registers a depot address with its site and failure behaviour.
func (m *Model) AddDepot(addr string, st DepotState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.depots[addr] = st
}

// SetDepotCorruption toggles read corruption for a depot.
func (m *Model) SetDepotCorruption(addr string, corrupt bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.depots[addr]
	st.CorruptReads = corrupt
	m.depots[addr] = st
}

// linkFor resolves the conditions between two sites.
func (m *Model) linkFor(src, dst string) Link {
	if src == dst {
		return m.localLink
	}
	if l, ok := m.links[sitePair{src, dst}]; ok {
		return l
	}
	if l, ok := m.links[sitePair{dst, src}]; ok {
		return l
	}
	return m.defaultLink
}

// DepotUp reports whether the depot process at addr is up now (the
// experiment harness uses this to separate depot failures from link
// failures in its logs).
func (m *Model) DepotUp(addr string) bool {
	m.mu.Lock()
	st, ok := m.depots[addr]
	m.mu.Unlock()
	if !ok {
		return true
	}
	return st.avail().UpAt(m.clock.Now())
}

// LinkUp reports whether the src→dst site link is up now.
func (m *Model) LinkUp(src, dst string) bool {
	m.mu.Lock()
	l := m.linkFor(src, dst)
	m.mu.Unlock()
	return l.avail().UpAt(m.clock.Now())
}

// DialerFrom returns a dialer representing a client at the given site. All
// connections it opens are shaped against the model.
func (m *Model) DialerFrom(site string) netx.Dialer {
	return netx.DialerFunc(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		return m.dial(site, network, addr, timeout)
	})
}

// DefaultWallPacing is the divisor SetWallPacing callers should normally
// use: 1s of simulated transfer time costs 10ms of wall time — large
// enough that fixed wall overheads (a real loopback dial, a few syscalls,
// goroutine wakeups) stay small next to any meaningful simulated delay.
const DefaultWallPacing = 100

// SetWallPacing makes virtual-clock advances also sleep d/div of real
// time (0, the default, disables pacing). Without pacing every transfer
// completes in microseconds of wall time regardless of its simulated
// cost, so code that races concurrent transfers — hedged reads — would
// see wall-clock completion order bear no relation to simulated speed.
// With pacing, a virtually-slow transfer is also wall-slow in proportion
// and races resolve the way they would on a real network. Each connection
// paces its own charges (see pacer). Only transfer charges and dial
// latencies are paced; experiment-level clock jumps
// (Advance on the virtual clock directly) stay free, so long simulated
// monitoring runs remain fast unless they actually move bytes.
func (m *Model) SetWallPacing(div int) {
	m.pacing.Store(int64(div))
}

// advanceClock moves simulated time forward by d: virtual clocks advance
// directly (plus a proportional pacing sleep through p when SetWallPacing
// is on), real clocks sleep.
func (m *Model) advanceClock(d time.Duration, p *pacer) {
	if d <= 0 {
		return
	}
	if v, ok := m.clock.(*vclock.Virtual); ok {
		v.Advance(d)
		if div := m.pacing.Load(); div > 0 {
			p.pace(d / time.Duration(div))
		}
		return
	}
	m.clock.Sleep(d)
}

// minPacingSleep is the shortest wall sleep a pacer takes. The runtime
// rounds shorter sleeps up to about a millisecond whenever nothing else is
// runnable (always so at GOMAXPROCS=1): a transfer paced 3 µs per 4 KiB
// chunk would really take 1 ms per chunk, and lose a hedged race it should
// win by orders of magnitude.
const minPacingSleep = time.Millisecond

// pacer keeps one connection's wall time from running ahead of its paced
// share of simulated time. Charges below minPacingSleep are carried and
// slept once they add up to it; a remainder the connection never reaches
// is forgiven.
type pacer struct {
	mu  sync.Mutex
	due time.Time // the wall time the charges so far are paid up to
}

func (p *pacer) pace(d time.Duration) {
	p.mu.Lock()
	now := time.Now()
	if p.due.Before(now) {
		p.due = now
	}
	p.due = p.due.Add(d)
	wait := p.due.Sub(now)
	p.mu.Unlock()
	if wait >= minPacingSleep {
		time.Sleep(wait)
	}
}

// route returns the depot at addr and the link to it from srcSite as the
// model has them now.
func (m *Model) route(srcSite, addr string) (DepotState, Link) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, link, _ := m.routeLocked(srcSite, addr)
	return st, link
}

// routeLocked is route under m.mu, also saying whether the depot is known.
func (m *Model) routeLocked(srcSite, addr string) (DepotState, Link, bool) {
	st, known := m.depots[addr]
	if !known {
		return st, m.defaultLink, false
	}
	return st, m.linkFor(srcSite, st.Site), true
}

func (m *Model) dial(srcSite, network, addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	st, link, known := m.routeLocked(srcSite, addr)
	jitter := 1.0
	if link.JitterFrac > 0 {
		jitter = 1 - link.JitterFrac + 2*link.JitterFrac*m.rng.Float64()
	}
	m.mu.Unlock()

	now := m.clock.Now()
	if !known {
		return nil, &net.OpError{Op: "dial", Net: network, Err: fmt.Errorf("faultnet: unknown depot %s", addr)}
	}
	// Link outage: the connection attempt hangs until the dial timeout.
	if !link.avail().UpAt(now) {
		m.advanceClock(timeout, new(pacer))
		return nil, &net.OpError{Op: "dial", Net: network, Err: timeoutError{"link down: dial timed out"}}
	}
	// Depot process down: fast refusal after one round trip.
	if !st.avail().UpAt(now) {
		m.advanceClock(link.RTT, new(pacer))
		return nil, &net.OpError{Op: "dial", Net: network, Err: fmt.Errorf("faultnet: connection refused (depot down)")}
	}
	raw, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &shapedConn{
		Conn:    raw,
		model:   m,
		addr:    addr,
		jitter:  jitter,
		srcSite: srcSite,
	}
	// Connection establishment costs one RTT.
	m.advanceClock(link.RTT, &c.pacer)
	return c, nil
}

// timeoutError satisfies net.Error with Timeout() == true.
type timeoutError struct{ msg string }

func (e timeoutError) Error() string   { return "faultnet: " + e.msg }
func (e timeoutError) Timeout() bool   { return true }
func (e timeoutError) Temporary() bool { return true }
