package transfer

import (
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// singleflight collapses concurrent calls with the same key into one
// execution whose result every caller shares — the classic pattern, sized
// down to exactly what coded-group recovery needs. Results are not cached:
// once the leader's call completes and its waiters drain, the next caller
// for the key runs fn again (a later extent may legitimately need a fresh
// decode after depots change state).
type singleflight struct {
	mu sync.Mutex
	m  map[string]*sfCall
}

type sfCall struct {
	wg   sync.WaitGroup
	val  []byte
	err  error
	refs atomic.Int32 // callers that have not released val yet
}

func newSingleflight() *singleflight {
	return &singleflight{m: make(map[string]*sfCall)}
}

// do executes fn under key, or waits for the in-flight execution and
// shares its result. shared reports whether this caller reused another
// caller's work. The returned slice is shared: treat it as read-only, and
// call release once done with it. fn's result is a bufpool buffer, and
// the last caller's release puts it back.
func (g *singleflight) do(key string, fn func() ([]byte, error)) (val []byte, release func(), shared bool, err error) {
	g.mu.Lock()
	c, shared := g.m[key]
	if shared {
		// Joining only while the call is in the map, under the lock, puts
		// every caller's hold in place before the first release.
		c.refs.Add(1)
		g.mu.Unlock()
		c.wg.Wait()
	} else {
		c = &sfCall{}
		c.refs.Store(1)
		c.wg.Add(1)
		g.m[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}
	return c.val, c.release, shared, c.err
}

// release drops one caller's hold on the shared result.
func (c *sfCall) release() {
	if c.refs.Add(-1) == 0 {
		bufpool.Put(c.val)
	}
}
