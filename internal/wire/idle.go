package wire

import (
	"errors"
	"net"
	"os"
	"reflect"
	"syscall"
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
// The check is one non-blocking read at the socket's file descriptor.
// The socket is found once per connection, through any wrappers (see
// findSocket), and the first check caches it, so later checks allocate
// nothing. A connection with no socket underneath (a test pipe) gets a
// read under an already-expired deadline instead, which must time out.
// The read deadline is cleared on return; the caller sets the next
// exchange's own.
func (c *Conn) CheckIdle() error {
	if c.br.Buffered() > 0 {
		return ErrUnsolicited
	}
	p := &c.idle
	if !p.resolved {
		p.resolved = true
		p.sock, p.rc = findSocket(c.raw)
		if p.rc != nil {
			p.read = p.readFunc()
		}
	}
	if p.read != nil {
		// An expired deadline from the last exchange would fail the read
		// before it ran.
		if err := p.sock.SetReadDeadline(time.Time{}); err != nil {
			return err
		}
		p.state = nil
		if err := p.rc.Read(p.read); err != nil {
			return err
		}
		return p.state
	}
	if err := c.raw.SetReadDeadline(time.Unix(1, 0)); err != nil {
		return err
	}
	n, err := c.raw.Read(p.buf[:])
	switch {
	case n > 0 || err == nil:
		return ErrUnsolicited
	case !errors.Is(err, os.ErrDeadlineExceeded):
		return err
	}
	return c.raw.SetReadDeadline(time.Time{})
}

// idleProbe is a connection's cached means of checking it while idle.
type idleProbe struct {
	resolved bool
	sock     net.Conn           // the socket under any wrappers, or nil
	rc       syscall.RawConn    // sock's descriptor
	read     func(uintptr) bool // the descriptor-level read; nil: none here
	state    error              // what the last read saw
	buf      [1]byte
}

// maxWrapDepth bounds how many wrappers findSocket looks through.
const maxWrapDepth = 8

var netConnType = reflect.TypeOf((*net.Conn)(nil)).Elem()

// findSocket returns the connection under conn that exposes its file
// descriptor, and that descriptor, or nils. A wrapper is looked through
// when it has a NetConn() net.Conn method (as crypto/tls does) or embeds
// an exported net.Conn field (as a struct{ net.Conn } that overrides a
// method or two does), so a dialer's wrapper does not hide a dead peer.
func findSocket(conn net.Conn) (net.Conn, syscall.RawConn) {
	for depth := 0; conn != nil && depth < maxWrapDepth; depth++ {
		if sc, ok := conn.(syscall.Conn); ok {
			rc, err := sc.SyscallConn()
			if err != nil {
				return nil, nil
			}
			return conn, rc
		}
		if u, ok := conn.(interface{ NetConn() net.Conn }); ok {
			conn = u.NetConn()
			continue
		}
		conn = embeddedConn(conn)
	}
	return nil, nil
}

// embeddedConn returns the net.Conn that conn's struct (or pointer to
// struct) embeds as an exported field, or nil.
func embeddedConn(conn net.Conn) net.Conn {
	v := reflect.ValueOf(conn)
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous && f.IsExported() && f.Type.Implements(netConnType) {
			inner, _ := v.Field(i).Interface().(net.Conn)
			return inner
		}
	}
	return nil
}
