//go:build unix

package wire

import (
	"io"
	"syscall"
)

// readFunc builds the descriptor-level idle read, once per connection.
// Go sockets are non-blocking, so the read returns at once: EAGAIN from
// a silent live peer, 0 from one that closed, ECONNRESET from one that
// reset. It records what it saw in p.state and never waits for
// readiness.
func (p *idleProbe) readFunc() func(uintptr) bool {
	return func(fd uintptr) bool {
		n, err := syscall.Read(int(fd), p.buf[:])
		switch {
		case err == syscall.EAGAIN || err == syscall.EINTR:
		case err != nil:
			p.state = err
		case n == 0:
			p.state = io.EOF
		default:
			p.state = ErrUnsolicited
		}
		return true
	}
}
