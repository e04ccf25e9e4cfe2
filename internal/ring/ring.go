// Package ring is the stack's one bounded history: a fixed-capacity
// buffer that keeps the newest values, overwrites the oldest once full,
// and counts every overwrite. Event rings, latency windows, sample series
// and eviction FIFOs all hold one, so how history is bounded, read back
// and counted is decided here once instead of at each site.
//
// A Ring has no lock: every owner already holds one that guards more than
// the ring.
package ring

// Ring keeps the last n values pushed into it.
type Ring[T any] struct {
	buf     []T
	max     int
	next    int // once full, the slot the next Push overwrites (the oldest)
	dropped uint64
}

// New returns an empty ring of capacity n (n <= 0 means 1). Storage grows
// on demand up to n, so a large bound costs nothing until it is used.
func New[T any](n int) *Ring[T] {
	if n <= 0 {
		n = 1
	}
	return &Ring[T]{max: n}
}

// Push appends v, overwriting and counting the oldest value when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == r.max {
		r.next = 0
	}
	r.dropped++
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Full reports whether the next Push overwrites a value.
func (r *Ring[T]) Full() bool { return len(r.buf) == r.max }

// Dropped reports how many values have been overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// At returns the i-th oldest retained value, 0 <= i < Len.
func (r *Ring[T]) At(i int) T {
	if i += r.next; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Values returns the retained values in storage order, not age order. It
// aliases the ring and allocates nothing: for readers that sort a copy or
// count, where order does not matter.
func (r *Ring[T]) Values() []T { return r.buf }

// Last appends the newest n values to dst, oldest first, and returns it;
// n <= 0 or n > Len means every retained value. A nil dst yields a non-nil
// slice.
func (r *Ring[T]) Last(dst []T, n int) []T {
	if n <= 0 || n > len(r.buf) {
		n = len(r.buf)
	}
	if dst == nil {
		dst = make([]T, 0, n)
	}
	for i := len(r.buf) - n; i < len(r.buf); i++ {
		dst = append(dst, r.At(i))
	}
	return dst
}
