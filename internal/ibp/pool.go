package ibp

import (
	"errors"
	"io"
	"net"

	"repro/internal/wire"
)

// The IBP wire protocol is request/response over a persistent connection,
// so a client may reuse connections across operations instead of dialing
// per call (the original library's model, and this client's default).
// Pooling is opt-in via WithPooling: benchmarks show when the dial round
// trip matters. The parking lot itself is wire.Pool, shared with the
// registry's quorum client.

// WithPooling enables connection reuse with up to maxIdle parked
// connections per depot. Close the client when done to release them.
func WithPooling(maxIdle int) Option {
	return func(c *Client) {
		if maxIdle > 0 {
			c.pool = wire.NewPool(maxIdle)
		}
	}
}

// Close releases pooled connections. A client without pooling needs no
// Close.
func (c *Client) Close() error {
	if c.pool != nil {
		c.pool.Close()
	}
	return nil
}

// acquire returns a connection to addr — pooled if available, freshly
// dialed otherwise — with the operation deadline applied.
func (c *Client) acquire(addr string) (*wire.Conn, bool, error) {
	if c.pool != nil {
		if conn := c.pool.Get(addr); conn != nil {
			if err := c.applyDeadline(conn); err == nil {
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
