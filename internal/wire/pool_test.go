package wire

import (
	"net"
	"testing"
	"time"
)

func TestPoolGetPut(t *testing.T) {
	p := NewPool(2)
	if p.Get("a:1") != nil {
		t.Fatal("empty pool should return nil")
	}
	c1, c2, c3 := fakeConn(t), fakeConn(t), fakeConn(t)
	p.Put("a:1", c1)
	p.Put("a:1", c2)
	p.Put("a:1", c3) // overflow: closed, not parked
	if got := p.Get("a:1"); got != c2 {
		t.Fatal("pool should be LIFO")
	}
	if got := p.Get("a:1"); got != c1 {
		t.Fatal("second get should return first conn")
	}
	if p.Get("a:1") != nil {
		t.Fatal("pool should be drained")
	}
	// Different addresses are separate.
	p.Put("b:1", fakeConn(t))
	if p.Get("a:1") != nil {
		t.Fatal("addresses must not share pools")
	}
}

func TestPoolCloseAll(t *testing.T) {
	p := NewPool(4)
	p.Put("a:1", fakeConn(t))
	p.Close()
	if p.Get("a:1") != nil {
		t.Fatal("closed pool should be empty")
	}
	// Parking after close just closes the conn.
	p.Put("a:1", fakeConn(t))
	if p.Get("a:1") != nil {
		t.Fatal("closed pool must not park conns")
	}
}

func TestPoolDropsOverAgedConns(t *testing.T) {
	p := NewPool(4)
	now := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return now }

	stale := fakeConn(t)
	p.Put("a:1", stale)
	now = now.Add(maxIdleAge / 2)
	fresh := fakeConn(t)
	p.Put("a:1", fresh)

	// Three quarters of the age later the first conn is over the limit and
	// the second under it. LIFO pops fresh first; the stale one must be
	// dropped, not handed out.
	now = now.Add(maxIdleAge * 3 / 4)
	if got := p.Get("a:1"); got != fresh {
		t.Fatal("fresh conn should be returned")
	}
	if got := p.Get("a:1"); got != nil {
		t.Fatal("over-aged conn must be dropped, not reused")
	}
	// Dropped means closed: a write on the wrapped pipe now fails.
	if err := stale.WriteLine("PING"); err == nil {
		t.Fatal("dropped conn was not closed")
	}
}

func fakeConn(t *testing.T) *Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a)
}
