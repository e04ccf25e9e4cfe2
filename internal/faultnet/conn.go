package faultnet

import (
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// shapedConn wraps a real loopback connection and charges simulated WAN
// time for everything that crosses it. It implements netx.VirtualDeadliner
// so client operation timeouts are enforced in simulated time.
//
// It reads its depot's and its link's state from the model at every Read
// and Write, not once at dial time, so a depot killed or a link cut after
// the dial reaches connections already open, parked ones included: the
// call fails before any byte crosses, as a reset when the depot is down
// and as a timeout when the link is.
type shapedConn struct {
	net.Conn
	model   *Model
	addr    string // the depot's address, its key in the model
	jitter  float64
	srcSite string
	pacer   pacer

	mu        sync.Mutex
	vdeadline time.Time
	lastWrite bool // last shaped op was a write (next read pays an RTT)
	corrupted bool // one byte of the current response already flipped
}

// SetVirtualDeadline implements netx.VirtualDeadliner.
func (c *shapedConn) SetVirtualDeadline(t time.Time) error {
	c.mu.Lock()
	c.vdeadline = t
	c.mu.Unlock()
	return nil
}

// reach returns the depot's and the link's state now, or the error a call
// on a connection to a depot that is down, or across a link that is, meets
// before any byte crosses.
func (c *shapedConn) reach(op string) (DepotState, Link, error) {
	st, link := c.model.route(c.srcSite, c.addr)
	now := c.model.clock.Now()
	if !st.avail().UpAt(now) {
		return st, link, &net.OpError{Op: op, Net: "tcp", Err: os.NewSyscallError(op, syscall.ECONNRESET)}
	}
	if !link.avail().UpAt(now) {
		return st, link, &net.OpError{Op: op, Net: "tcp", Err: timeoutError{"link down"}}
	}
	return st, link, nil
}

// effectiveMbps applies per-connection jitter to the link bandwidth.
func (c *shapedConn) effectiveMbps(link Link) float64 {
	mbps := link.Mbps * c.jitter
	if mbps <= 0 {
		mbps = 0.1
	}
	return mbps
}

// charge advances simulated time for n transferred bytes (plus an optional
// RTT) over link and enforces outages and the virtual deadline.
func (c *shapedConn) charge(n int, rtt bool, st DepotState, link Link) error {
	d := time.Duration(float64(n*8) / (c.effectiveMbps(link) * 1e6) * float64(time.Second))
	if rtt {
		d += link.RTT
	}
	c.model.advanceClock(d, &c.pacer)
	now := c.model.clock.Now()

	c.mu.Lock()
	deadline := c.vdeadline
	c.mu.Unlock()
	if !deadline.IsZero() && now.After(deadline) {
		return os.ErrDeadlineExceeded
	}
	// Mid-transfer failure: the depot or link went down while the bytes
	// were in flight.
	if !st.avail().UpAt(now) {
		return &net.OpError{Op: "read", Err: timeoutError{"depot failed mid-transfer"}}
	}
	if !link.avail().UpAt(now) {
		return &net.OpError{Op: "read", Err: timeoutError{"link failed mid-transfer"}}
	}
	return nil
}

// shapeChunk bounds how many bytes a single shaped Read or Write may move
// before simulated time is charged. Loopback TCP happily delivers a whole
// 50 KiB response in one syscall; charging it as one lump would commit the
// entire transfer's simulated cost atomically, letting a transfer sail
// past outage windows, virtual deadlines, and cancellation in one step.
// Chunking keeps mid-transfer events at packet-train granularity.
const shapeChunk = 4 << 10

// Read shapes inbound data: bandwidth delay per byte, one RTT when this
// read answers a preceding write (a request/response turn).
func (c *shapedConn) Read(p []byte) (int, error) {
	st, link, err := c.reach("read")
	if err != nil {
		return 0, err
	}
	if len(p) > shapeChunk {
		p = p[:shapeChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		turn := c.lastWrite
		c.lastWrite = false
		// Corrupt only bulk chunks (≥256 bytes): protocol status lines are
		// short, so the flip deterministically lands in payload bytes —
		// modelling silent storage corruption rather than a framing error.
		needCorrupt := st.CorruptReads && !c.corrupted && n >= 256
		if needCorrupt {
			c.corrupted = true
		}
		c.mu.Unlock()
		if needCorrupt {
			p[n/2] ^= 0x55
		}
		if cerr := c.charge(n, turn, st, link); cerr != nil {
			return n, cerr
		}
	}
	return n, err
}

// Write shapes outbound data, charging per chunk so large uploads can be
// interrupted mid-transfer. Unlike Read, Write must consume all of p, so
// it loops instead of truncating. A write starts a new request, so the
// response to it may be corrupted afresh.
func (c *shapedConn) Write(p []byte) (int, error) {
	st, link, err := c.reach("write")
	if err != nil {
		return 0, err
	}
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > shapeChunk {
			chunk = chunk[:shapeChunk]
		}
		n, err := c.Conn.Write(chunk)
		if n > 0 {
			c.mu.Lock()
			c.lastWrite = true
			c.corrupted = false
			c.mu.Unlock()
			total += n
			if cerr := c.charge(n, false, st, link); cerr != nil {
				return total, cerr
			}
		}
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}
