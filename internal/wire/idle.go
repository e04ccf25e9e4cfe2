package wire

import (
	"errors"
	"os"
	"time"
)

// ErrUnsolicited reports bytes waiting on a connection that should be
// idle: the peer spoke out of turn, so the framing can no longer be
// trusted.
var ErrUnsolicited = errors.New("wire: unsolicited data on idle connection")

// CheckIdle reports whether a connection parked between exchanges can
// still carry a request: nil when the peer is silent and connected, an
// error when it has closed, reset, or sent bytes nobody asked for. It
// never blocks. A client that must not send a request twice calls this
// on checkout, because a write to a connection whose peer went away
// while it was parked succeeds locally and only the read that follows
// fails — by which time nobody can say whether the request was applied.
//
// On a socket the check is one non-blocking read at the file descriptor.
// Any other net.Conn (a test pipe, a dialer's wrapper that hides the
// descriptor) gets a read under an already-expired deadline, which must
// time out. Over TCP that form sees nothing — Go fails such a read
// before it reaches the kernel — so a wrapped connection whose peer
// restarted is found out by its next exchange instead. The read deadline
// is cleared on return; the caller sets the next exchange's own.
func (c *Conn) CheckIdle() error {
	if c.br.Buffered() > 0 {
		return ErrUnsolicited
	}
	if checked, err := checkIdleSocket(c.raw); checked {
		return err
	}
	if err := c.raw.SetReadDeadline(time.Unix(1, 0)); err != nil {
		return err
	}
	var b [1]byte
	n, err := c.raw.Read(b[:])
	switch {
	case n > 0 || err == nil:
		return ErrUnsolicited
	case !errors.Is(err, os.ErrDeadlineExceeded):
		return err
	}
	return c.raw.SetReadDeadline(time.Time{})
}
