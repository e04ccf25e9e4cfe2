//go:build unix

package wire

import (
	"io"
	"net"
	"syscall"
	"time"
)

// checkIdleSocket is CheckIdle for connections that expose their file
// descriptor. Go sockets are non-blocking, so the read returns at once:
// EAGAIN from a silent live peer, 0 from one that closed, ECONNRESET
// from one that reset.
func checkIdleSocket(raw net.Conn) (checked bool, err error) {
	sc, ok := raw.(syscall.Conn)
	if !ok {
		return false, nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true, err
	}
	// An expired deadline from the last exchange would fail the read
	// before it ran.
	if err := raw.SetReadDeadline(time.Time{}); err != nil {
		return true, err
	}
	var state error
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		n, rerr := syscall.Read(int(fd), b[:])
		switch {
		case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
		case rerr != nil:
			state = rerr
		case n == 0:
			state = io.EOF
		default:
			state = ErrUnsolicited
		}
		return true // never wait for readiness
	})
	if err != nil {
		return true, err
	}
	return true, state
}
