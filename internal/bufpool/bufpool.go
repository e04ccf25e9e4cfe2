// Package bufpool is the sized buffer pool shared by the hot data path —
// wire framing, the IBP client, the depot daemon, and the transfer layers
// all borrow payload buffers here instead of allocating per operation. The
// paper's depots are meant to sit "as close to the network as possible";
// re-materializing every payload at every layer boundary is exactly the
// overhead that design rejects (and what the Exposed Buffer Architecture
// line of work makes explicit).
//
// Buffers are grouped into power-of-two size classes from MinSize to
// MaxSize, one sync.Pool per class. Get rounds the request up to the next
// class so a returned buffer is reusable by any request of its class;
// requests above MaxSize fall through to plain make and are never pooled
// (Put discards them), so one giant read cannot pin megabytes in the pool.
//
// # Ownership rules
//
// The pool is only a win if aliasing bugs are impossible to write by
// accident, so the contract is strict:
//
//  1. Get transfers exclusive ownership of the buffer to the caller.
//     Nobody else holds a reference; the contents are undefined (NOT
//     zeroed).
//  2. Put transfers ownership back. After Put the caller must not read,
//     write, or retain any slice aliasing the buffer — including
//     sub-slices previously handed to other code.
//  3. A function that receives a borrowed buffer as an argument (e.g.
//     Handle.Append, wire.Conn.WriteBlob) must not retain it past return.
//     If it needs the bytes later it must copy them. One callee is the
//     exception: depot.OwningAppender.AppendOwned, which the depot's STORE
//     handler calls with the payload buffer, may keep that buffer as a mem
//     allocation's storage and reports whether it did. Such a buffer comes
//     back when the allocation is removed and no depot.Lease on it is
//     still held. A mem depot's resident bytes per stored byte therefore
//     follow the size classes: 1.0 for 1 MiB blocks (stackbench's
//     bulk_bare), about 1.5 for 349 526-byte RS blocks in 512 KiB classes
//     (degraded_full). A segment depot.Handle.Lend returns is not the
//     caller's to Put either: when it is a pooled pread copy (file, or
//     pack with no mapping), its Lease owns the buffer and Release puts
//     it back.
//  4. A function that returns a borrowed buffer to its caller (e.g.
//     ibp.Client.Load with pooling) must say so in its doc comment; the
//     caller then owns it and decides whether to Put. A buffer several
//     callers share comes with a release instead: transfer.Engine.GroupDo
//     hands one decoded coding group to every caller that asked for it,
//     each calls its release once it has copied what it needs, and the
//     last release Puts the buffer.
//  5. Never Put a buffer twice, and never Put a sub-slice: only the exact
//     slice (same base pointer and capacity) returned by Get.
//
// Violations show up as data corruption under -race and in the depot's
// aliasing regression tests, not as tidy errors — follow the rules.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// MinSize is the smallest pooled class (smaller requests round up to
	// it; pooling a 16-byte buffer is not worth the bookkeeping).
	MinSize = 1 << 9 // 512 B
	// MaxSize is the largest pooled class. Above it Get falls back to
	// plain allocation.
	MaxSize = 1 << 23 // 8 MiB

	minShift   = 9
	maxShift   = 23
	numClasses = maxShift - minShift + 1
)

var classes [numClasses]sync.Pool

// Stats counts pool traffic (for tests and the /metrics runtime gauges).
type Stats struct {
	Gets      int64 // Get calls served from a class (hit or miss)
	Misses    int64 // Gets that allocated because the class was empty
	Puts      int64 // buffers returned to a class
	Oversize  int64 // Gets above MaxSize (plain make, never pooled)
	Discarded int64 // Puts of non-class buffers, dropped
}

var stats struct {
	gets, misses, puts, oversize, discarded atomic.Int64
}

// classFor returns the class index for a request of n bytes, or -1 when n
// is above MaxSize.
func classFor(n int) int {
	if n > MaxSize {
		return -1
	}
	if n <= MinSize {
		return 0
	}
	// Smallest power of two >= n, as a shift.
	s := bits.Len(uint(n - 1))
	return s - minShift
}

// Get returns a buffer of length n with capacity of n's size class. The
// caller owns it exclusively until Put; contents are undefined.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative length")
	}
	ci := classFor(n)
	if ci < 0 {
		stats.oversize.Add(1)
		return make([]byte, n)
	}
	stats.gets.Add(1)
	if v := classes[ci].Get(); v != nil {
		w := v.(*buf)
		b := w.b
		w.b = nil
		wrapPool.Put(w)
		return b[:n]
	}
	stats.misses.Add(1)
	return make([]byte, n, 1<<(ci+minShift))
}

// buf wraps the byte slice so Put stores a pointer-shaped value (avoids an
// allocation per Put for the interface conversion).
type buf struct{ b []byte }

var wrapPool = sync.Pool{New: func() any { return new(buf) }}

// Put returns a buffer obtained from Get to its class. Buffers whose
// capacity is not an exact pooled class size (grown, sub-sliced from a
// larger allocation, or oversize) are discarded — Put never panics, so
// call sites can unconditionally release on every path. Put(nil) is a
// no-op.
func Put(p []byte) {
	c := cap(p)
	if c < MinSize || c > MaxSize || c&(c-1) != 0 {
		if p != nil {
			stats.discarded.Add(1)
		}
		return
	}
	ci := bits.Len(uint(c)) - 1 - minShift
	stats.puts.Add(1)
	w := wrapPool.Get().(*buf)
	w.b = p[:c]
	classes[ci].Put(w)
}

// Snapshot returns the pool traffic counters.
func Snapshot() Stats {
	return Stats{
		Gets:      stats.gets.Load(),
		Misses:    stats.misses.Load(),
		Puts:      stats.puts.Load(),
		Oversize:  stats.oversize.Load(),
		Discarded: stats.discarded.Load(),
	}
}
