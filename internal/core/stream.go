package core

import (
	"io"
	"time"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/geo"
)

// streamReader implements the paper's streaming download mode ("the
// download may operate in a streaming fashion, so that the client only has
// to consume small, discrete portions of the file at a time", §2.3):
// extents are fetched as the caller reads, optionally prefetched up to
// DownloadOptions.Readahead extents ahead through the transfer engine so a
// steady consumer overlaps network time with consumption while memory stays
// bounded at Readahead+1 extents.
//
// Error handling is strict: the reader only advances past an extent once
// its bytes are fully in hand, and any fetch failure latches — every later
// Read returns the same error. A retried Read can therefore never silently
// skip a failed extent's bytes and splice mismatched ranges together.
type streamReader struct {
	t        *Tools
	x        *exnode.ExNode
	opts     DownloadOptions
	exts     []exnode.Extent
	dir      map[string]geo.Point
	start    time.Time              // budget + duration accounting baseline
	inflight map[int]chan extentRes // scheduled fetches by extent index
	sched    int                    // next extent index to schedule
	next     int                    // next extent index to consume
	buf      []byte                 // unread remainder of the current extent
	cur      []byte                 // pooled buffer backing buf
	err      error                  // latched permanent error
	report   *Report
	closed   bool
}

// extentRes is one background fetch's result. The channel carrying it is
// buffered so an abandoned fetch (reader closed early) never leaks its
// goroutine.
type extentRes struct {
	er   ExtentReport
	data []byte
}

// OpenRangeReader returns a streaming reader over [offset, offset+length).
// The Report is filled in as extents are consumed and is complete once Read
// returns io.EOF: Bytes and Failovers reflect actual progress, not the
// requested range.
func (t *Tools) OpenRangeReader(x *exnode.ExNode, offset, length int64, opts DownloadOptions) (io.ReadCloser, *Report, error) {
	if err := x.Validate(); err != nil {
		return nil, nil, err
	}
	exts := x.Boundaries(offset, offset+length)
	r := &streamReader{
		t:        t,
		x:        x,
		opts:     opts,
		exts:     exts,
		dir:      t.staticDirectoryIfNeeded(x, opts),
		start:    t.clock().Now(),
		inflight: make(map[int]chan extentRes),
		report:   &Report{},
	}
	return r, r.report, nil
}

func (r *streamReader) overBudget() bool {
	return r.opts.Budget > 0 && r.t.clock().Since(r.start) > r.opts.Budget
}

// schedule launches background fetches for every extent in the window
// [next, next+Readahead] that is not already in flight. With Readahead 0
// this degenerates to fetching exactly the extent about to be consumed —
// the paper's lazy mode, just off the caller's goroutine. The budget is
// checked as each fetch starts: extents in flight at the deadline finish,
// nothing new starts.
func (r *streamReader) schedule() {
	window := r.opts.Readahead
	if window < 0 {
		window = 0
	}
	hi := r.next + 1 + window
	if hi > len(r.exts) {
		hi = len(r.exts)
	}
	if r.sched < r.next {
		r.sched = r.next
	}
	for ; r.sched < hi; r.sched++ {
		idx := r.sched
		ext := r.exts[idx]
		ch := make(chan extentRes, 1)
		r.inflight[idx] = ch
		go func() {
			if r.overBudget() {
				ch <- extentRes{er: ExtentReport{Start: ext.Start, End: ext.End, Err: ErrBudgetExceeded}}
				return
			}
			// A pooled buffer per in-flight extent: the pool's footprint is
			// bounded by the readahead window, and the buffer is released
			// once the extent is consumed (or its fetch fails).
			dst := bufpool.Get(int(ext.Len()))
			// The seed mix is the extent index — identical to
			// DownloadRange's worker path, so StrategyRandom produces the
			// same candidate order whether a range is streamed or
			// downloaded in one call.
			er := r.t.fetchExtent(r.x, ext, dst, r.opts, r.dir, idx)
			ch <- extentRes{er: er, data: dst}
		}()
	}
}

// Read implements io.Reader: it serves buffered bytes, consuming the next
// extent (and keeping the readahead window full) when the buffer drains.
func (r *streamReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, io.ErrClosedPipe
	}
	if r.err != nil {
		return 0, r.err
	}
	for len(r.buf) == 0 {
		// The previous extent is fully consumed: its pooled buffer goes
		// back before the next one is fetched.
		if r.cur != nil {
			bufpool.Put(r.cur)
			r.cur = nil
		}
		if r.next >= len(r.exts) {
			return 0, io.EOF
		}
		r.schedule()
		ext := r.exts[r.next]
		res := <-r.inflight[r.next]
		delete(r.inflight, r.next)
		r.report.Extents = append(r.report.Extents, res.er)
		r.report.Failovers += res.er.Attempts
		if res.er.Err == nil && res.er.Attempts > 0 {
			r.report.Failovers-- // the successful attempt is not a failover
		}
		r.report.Duration = r.t.clock().Since(r.start)
		if res.er.Err != nil {
			// Do not advance: the extent was never delivered. Latch so a
			// caller that retries Read gets the failure again instead of
			// the next extent's bytes spliced over the hole.
			bufpool.Put(res.data)
			r.err = res.er.Err
			return 0, r.err
		}
		if err := r.t.unsealRange(r.x, res.data, ext.Start, r.opts); err != nil {
			bufpool.Put(res.data)
			r.err = err
			return 0, err
		}
		r.report.Bytes += ext.Len()
		r.next++ // advance only once the extent is fully in hand
		r.buf, r.cur = res.data, res.data
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// Close releases the reader. In-flight readahead fetches finish in the
// background and are discarded (their result channels are buffered; their
// pooled buffers are simply dropped to the garbage collector, which the
// pool contract allows).
func (r *streamReader) Close() error {
	r.closed = true
	r.buf = nil
	if r.cur != nil {
		bufpool.Put(r.cur)
		r.cur = nil
	}
	return nil
}
