package ibp

import (
	"errors"
	"io"
	"net"

	"repro/internal/wire"
)

// The IBP wire protocol is request/response over a persistent connection,
// so a client parks a connection after a clean exchange and reuses it for
// the next one instead of dialing per call: a dial costs a round trip and
// a pair of bufio buffers at each end. The parking lot is wire.Pool,
// shared with the registry's quorum client.
//
// A parked connection may outlive its depot's process. A verb that can be
// re-sent (LOAD, PROBE, EXTEND) just runs, and a stale connection costs
// one retry on a fresh dial. One that cannot (ALLOCATE mints, STORE
// appends, DELETE decrements, COPY appends at a third depot) first checks
// the parked connection with wire.CheckIdle and dials fresh when its peer
// has gone: once such a request is written, nobody can say whether it was
// applied, so it is never re-sent.

// defaultMaxIdle is how many idle connections per depot a client parks
// unless WithPooling says otherwise.
const defaultMaxIdle = 4

// WithPooling bounds the idle connections the client parks per depot
// (default 4). maxIdle ≤ 0 turns pooling off: every operation dials its
// own connection, as the original IBP library did.
func WithPooling(maxIdle int) Option {
	return func(c *Client) { c.maxIdle = maxIdle }
}

// Close releases the client's parked connections. Operations after Close
// still work, but dial per call.
func (c *Client) Close() error {
	if c.pool != nil {
		c.pool.Close()
	}
	return nil
}

// acquire returns a connection to addr with the operation deadline
// applied: a parked one if there is one, else a fresh dial. Unless the
// operation is retryable, a parked connection must first pass the idle
// check; one that fails it is closed and the next is tried.
func (c *Client) acquire(addr string, retryable bool) (*wire.Conn, bool, error) {
	if c.pool != nil {
		for conn := c.pool.Get(addr); conn != nil; conn = c.pool.Get(addr) {
			if (retryable || conn.CheckIdle() == nil) && c.applyDeadline(conn) == nil {
				return conn, true, nil
			}
			conn.Close()
		}
	}
	conn, err := c.dialFresh(addr)
	return conn, false, err
}

// release parks conn for reuse after a clean exchange, or closes it after
// any error (the protocol state is then unknown).
func (c *Client) release(addr string, conn *wire.Conn, err error) {
	if err != nil || c.pool == nil {
		conn.Close()
		return
	}
	c.pool.Put(addr, conn)
}

// isConnReuseError reports whether err plausibly came from a stale pooled
// connection (peer closed it while idle) and the operation is worth one
// retry on a fresh dial. Remote protocol errors are never retried.
func isConnReuseError(err error) bool {
	if err == nil || wire.IsRemoteAny(err) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}
