package wire

import (
	"sync"
	"time"
)

// Both protocols are request/response over a persistent connection, so a
// client may park a connection after a clean exchange and reuse it for
// the next one instead of dialing per call. Pool is that parking lot,
// shared by the IBP client (on by default; ibp.WithPooling bounds it) and
// the registry's quorum client. Both check a parked connection with
// Conn.CheckIdle before writing a request that must not be sent twice.

// maxIdleAge is how long a parked connection stays reusable. A server
// restart leaves every parked conn to it stale; without an age limit each
// subsequent operation would burn a round trip discovering that.
const maxIdleAge = 90 * time.Second

// idleConn is a parked connection stamped with its park time.
type idleConn struct {
	conn   *Conn
	parked time.Time
}

// Pool keeps idle framed connections per server address. Safe for
// concurrent use.
type Pool struct {
	mu      sync.Mutex
	idle    map[string][]idleConn
	maxIdle int
	now     func() time.Time // wall clock; swappable in tests
	closed  bool
}

// NewPool returns a pool parking up to maxIdle connections per address,
// each for at most maxIdleAge.
func NewPool(maxIdle int) *Pool {
	return &Pool{
		idle:    make(map[string][]idleConn),
		maxIdle: maxIdle,
		now:     time.Now,
	}
}

// Get returns an idle connection to addr, or nil. Connections parked
// longer than the idle age are dropped rather than returned: their peer
// has likely closed or restarted, and handing them out would force every
// caller through its stale-conn path.
func (p *Pool) Get(addr string) *Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	cutoff := p.now().Add(-maxIdleAge)
	for len(conns) > 0 {
		ic := conns[len(conns)-1]
		conns = conns[:len(conns)-1]
		p.idle[addr] = conns
		if ic.parked.Before(cutoff) {
			ic.conn.Close()
			continue
		}
		return ic.conn
	}
	return nil
}

// Put parks a healthy connection for reuse; overflow closes it.
func (p *Pool) Put(addr string, conn *Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= p.maxIdle {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], idleConn{conn: conn, parked: p.now()})
	p.mu.Unlock()
}

// Close drops every idle connection; later Puts close instead of parking.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, conns := range p.idle {
		for _, ic := range conns {
			ic.conn.Close()
		}
		delete(p.idle, addr)
	}
}
