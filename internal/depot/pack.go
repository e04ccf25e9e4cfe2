package depot

// The pack engine: a backend that bundles many small byte arrays into a few
// large append-only bundle files with an in-memory index. A depot serving
// millions of small extents through the plain file backend pays one inode,
// one open/close, and one directory entry per allocation — the classic
// reason object stores degrade as object count grows. Packing keeps the
// per-allocation cost at one index entry and one journal line, so store and
// load latency stay flat regardless of how many allocations are live
// (the auklet pack-engine result the small-object benchmark reproduces).
//
// Layout on disk:
//
//	bundle-<seq>.pack   large append-only files; each allocation owns the
//	                    byte range [off, off+maxSize) of exactly one bundle
//	journal.jsonl       append-only JSON-line journal of index mutations:
//	                    create / size / remove / meta records
//
// The index (key → bundle, offset, size) lives in memory and is rebuilt by
// replaying the journal at startup, which also makes PackBackend a
// PersistentBackend: capabilities keep working across a depot restart
// (paper §3.2's cron-restarted depot). Bundles are never rewritten in
// place; Remove only marks space dead, and a bundle whose allocations are
// all dead is deleted whole. Compaction of partially-dead bundles is out
// of scope here.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DefaultBundleCap is the reservation ceiling of one bundle file. A Create
// that does not fit in the active bundle's remaining space seals it and
// starts the next one.
const DefaultBundleCap = 256 << 20

const packJournalName = "journal.jsonl"

// packRecord is one journal line.
type packRecord struct {
	Op     string     `json:"op"` // create | size | remove | meta
	Key    string     `json:"key"`
	Bundle int        `json:"bundle,omitempty"`
	Off    int64      `json:"off,omitempty"`
	Max    int64      `json:"max,omitempty"`
	Size   int64      `json:"size,omitempty"`
	Meta   *AllocMeta `json:"meta,omitempty"`
}

// packBundle is one open bundle file, guarded by the backend's mu; mm and
// f stay valid while a pin is held.
type packBundle struct {
	b       *PackBackend
	seq     int
	f       *os.File
	mm      []byte // read-only shared mapping of the file; nil → pread fallback
	tail    int64  // bytes reserved so far
	live    int    // live allocations referencing this bundle
	pins    int    // lent segments and reads in flight
	retired bool   // dropped or closed: no new pins; the last unpin unmaps
	dropped bool   // the file is deleted once unmapped
}

// packEntry is the in-memory index entry of one allocation.
type packEntry struct {
	mu     sync.Mutex
	bundle *packBundle
	off    int64
	max    int64
	size   int64
}

// PackBackend implements PersistentBackend over bundle files.
type PackBackend struct {
	dir       string
	bundleCap int64

	mu      sync.Mutex
	bundles map[int]*packBundle
	active  *packBundle
	nextSeq int
	index   map[string]*packEntry
	metas   map[string]AllocMeta

	jmu     sync.Mutex
	journal *os.File
	jw      *bufio.Writer
}

// NewPackBackend opens (creating if needed) a pack-engine store in dir and
// replays its journal. bundleCap caps one bundle's reserved bytes; pass 0
// for DefaultBundleCap.
func NewPackBackend(dir string, bundleCap int64) (*PackBackend, error) {
	if bundleCap <= 0 {
		bundleCap = DefaultBundleCap
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: pack backend: %w", err)
	}
	b := &PackBackend{
		dir:       dir,
		bundleCap: bundleCap,
		bundles:   map[int]*packBundle{},
		index:     map[string]*packEntry{},
		metas:     map[string]AllocMeta{},
	}
	if err := b.replay(); err != nil {
		return nil, err
	}
	j, err := os.OpenFile(b.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("depot: pack journal: %w", err)
	}
	b.journal = j
	b.jw = bufio.NewWriter(j)
	return b, nil
}

func (b *PackBackend) journalPath() string { return filepath.Join(b.dir, packJournalName) }

func (b *PackBackend) bundlePath(seq int) string {
	return filepath.Join(b.dir, fmt.Sprintf("bundle-%06d.pack", seq))
}

// replay rebuilds the in-memory index from the journal. A truncated final
// line (crash mid-append) is ignored; everything before it replays.
func (b *PackBackend) replay() error {
	f, err := os.Open(b.journalPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("depot: pack replay: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec packRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn tail line from a crash; stop trusting the rest
		}
		switch rec.Op {
		case "create":
			bun, err := b.openBundle(rec.Bundle)
			if err != nil {
				return err
			}
			if end := rec.Off + rec.Max; end > bun.tail {
				bun.tail = end
			}
			bun.live++
			b.index[rec.Key] = &packEntry{bundle: bun, off: rec.Off, max: rec.Max}
			if rec.Bundle >= b.nextSeq {
				b.nextSeq = rec.Bundle + 1
			}
		case "size":
			if e, ok := b.index[rec.Key]; ok && rec.Size <= e.max {
				e.size = rec.Size
			}
		case "remove":
			if e, ok := b.index[rec.Key]; ok {
				delete(b.index, rec.Key)
				e.bundle.live--
			}
			delete(b.metas, rec.Key)
		case "meta":
			if rec.Meta != nil {
				b.metas[rec.Key] = *rec.Meta
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("depot: pack replay: %w", err)
	}
	// Resume appending into the newest bundle that still has room; dead
	// bundles left behind by removes are collected now.
	for seq, bun := range b.bundles {
		if bun.live == 0 {
			b.retire(bun, true)
			continue
		}
		if b.active == nil || seq > b.active.seq {
			b.active = bun
		}
	}
	return nil
}

// openBundle returns the bundle with the given sequence number, opening or
// creating its file on first reference. Caller holds b.mu (or is replay,
// which is single-threaded).
func (b *PackBackend) openBundle(seq int) (*packBundle, error) {
	if bun, ok := b.bundles[seq]; ok {
		return bun, nil
	}
	f, err := os.OpenFile(b.bundlePath(seq), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("depot: pack bundle %d: %w", seq, err)
	}
	// Size the file to its full capacity up front (sparse — no blocks are
	// allocated until written) and map it read-only. Reads then come
	// straight out of the shared page cache with no syscall per load;
	// appends keep using pwrite, which the mapping observes. When the
	// mapping is refused, or an old bundle is shorter than the current
	// capacity, reads fall back to pread per range.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("depot: pack bundle %d: %w", seq, err)
	}
	size := st.Size()
	if size == 0 {
		if err := f.Truncate(b.bundleCap); err == nil {
			size = b.bundleCap
		}
	}
	bun := &packBundle{b: b, seq: seq, f: f, mm: mmapFile(f, size)}
	b.bundles[seq] = bun
	return bun, nil
}

// retire takes no more pins on bun and unmaps it now or at its last
// unpin; drop, for a fully-dead bundle, deletes its file too. Caller holds
// b.mu.
func (b *PackBackend) retire(bun *packBundle, drop bool) {
	bun.retired, bun.dropped = true, drop
	if b.active == bun {
		b.active = nil
	}
	if bun.pins == 0 {
		b.unmap(bun)
	}
}

// unmap releases a retired, unpinned bundle's mapping and file, and
// deletes a dropped one. Caller holds b.mu.
func (b *PackBackend) unmap(bun *packBundle) {
	munmapFile(bun.mm)
	bun.mm = nil
	bun.f.Close()
	if bun.dropped {
		os.Remove(b.bundlePath(bun.seq))
		delete(b.bundles, bun.seq)
	}
}

// Release implements Lease: it unpins the bundle, unmapping a retired one
// at its last unpin.
func (bun *packBundle) Release() {
	b := bun.b
	b.mu.Lock()
	defer b.mu.Unlock()
	bun.pins--
	if bun.pins == 0 && bun.retired {
		b.unmap(bun)
	}
}

// record appends one journal line and flushes it.
func (b *PackBackend) record(rec packRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	b.jmu.Lock()
	defer b.jmu.Unlock()
	if _, err := b.jw.Write(line); err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	if err := b.jw.WriteByte('\n'); err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	return b.jw.Flush()
}

// Create implements Backend: it reserves [tail, tail+maxSize) in the active
// bundle, sealing it and opening the next when the reservation does not fit.
func (b *PackBackend) Create(key string, maxSize int64) (Handle, error) {
	if maxSize > b.bundleCap {
		return nil, fmt.Errorf("depot: allocation of %d bytes exceeds bundle capacity %d", maxSize, b.bundleCap)
	}
	b.mu.Lock()
	if _, ok := b.index[key]; ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("depot: duplicate key %s", key)
	}
	if b.active == nil || b.active.tail+maxSize > b.bundleCap {
		bun, err := b.openBundle(b.nextSeq)
		if err != nil {
			b.mu.Unlock()
			return nil, err
		}
		b.nextSeq++
		b.active = bun
	}
	bun := b.active
	e := &packEntry{bundle: bun, off: bun.tail, max: maxSize}
	bun.tail += maxSize
	bun.live++
	b.index[key] = e
	b.mu.Unlock()
	if err := b.record(packRecord{Op: "create", Key: key, Bundle: bun.seq, Off: e.off, Max: maxSize}); err != nil {
		return nil, err
	}
	return &packHandle{b: b, key: key, e: e}, nil
}

// Remove implements Backend. The allocation's range becomes dead space;
// the bundle file is deleted only once every allocation in it is dead.
func (b *PackBackend) Remove(key string) error {
	b.mu.Lock()
	e, ok := b.index[key]
	if !ok {
		b.mu.Unlock()
		return fmt.Errorf("depot: remove: no such key %s", key)
	}
	delete(b.index, key)
	delete(b.metas, key)
	bun := e.bundle
	bun.live--
	if bun.live == 0 && bun != b.active {
		b.retire(bun, true)
	}
	b.mu.Unlock()
	return b.record(packRecord{Op: "remove", Key: key})
}

// Open implements PersistentBackend: it reattaches to a replayed entry.
func (b *PackBackend) Open(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	e, ok := b.index[key]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("depot: open: no such key %s", key)
	}
	if e.max != maxSize {
		return nil, fmt.Errorf("depot: open %s: size mismatch (index %d, meta %d)", key, e.max, maxSize)
	}
	return &packHandle{b: b, key: key, e: e}, nil
}

// SaveMeta implements PersistentBackend via a journal record.
func (b *PackBackend) SaveMeta(key string, meta AllocMeta) error {
	b.mu.Lock()
	b.metas[key] = meta
	b.mu.Unlock()
	return b.record(packRecord{Op: "meta", Key: key, Meta: &meta})
}

// LoadMeta implements PersistentBackend.
func (b *PackBackend) LoadMeta() (map[string]AllocMeta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]AllocMeta, len(b.metas))
	for k, v := range b.metas {
		out[k] = v
	}
	return out, nil
}

// Close flushes the journal and closes every bundle, each once no segment
// of it is lent. The depot does not call this (backends outlive
// connections); it exists for orderly daemon shutdown and tests.
func (b *PackBackend) Close() error {
	b.jmu.Lock()
	b.jw.Flush()
	err := b.journal.Close()
	b.jmu.Unlock()
	b.mu.Lock()
	for _, bun := range b.bundles {
		if !bun.retired {
			b.retire(bun, false)
		}
	}
	b.mu.Unlock()
	return err
}

// Bundles reports how many bundle files are open, counting a dropped one
// until its last lent segment is released (for tests).
func (b *PackBackend) Bundles() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.bundles)
}

// packHandle is the Handle view of one packed allocation.
type packHandle struct {
	b   *PackBackend
	key string
	e   *packEntry
}

func (h *packHandle) Append(p []byte) (int64, error) {
	e := h.e
	e.mu.Lock()
	if e.size+int64(len(p)) > e.max {
		n := e.size
		e.mu.Unlock()
		return n, ErrAllocFull
	}
	n, err := e.bundle.f.WriteAt(p, e.off+e.size)
	e.size += int64(n)
	newSize := e.size
	e.mu.Unlock()
	if err != nil {
		return newSize, fmt.Errorf("depot: pack append: %w", err)
	}
	if err := h.b.record(packRecord{Op: "size", Key: h.key, Size: newSize}); err != nil {
		return newSize, err
	}
	return newSize, nil
}

// pin checks [off, off+n) against the allocation and pins its bundle,
// which the caller releases. It returns the range's bytes in the bundle's
// mapping, or nil when the bundle has no mapping that long (an old bundle
// may be shorter than the current capacity).
func (h *packHandle) pin(off, n int64) (*packBundle, []byte, error) {
	b, e := h.b, h.e
	e.mu.Lock()
	size := e.size
	e.mu.Unlock()
	if !inRange(off, n, size) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	bun := e.bundle
	if bun.retired {
		return nil, nil, errRemoved
	}
	bun.pins++
	if at := e.off + off; bun.mm != nil && at+n <= int64(len(bun.mm)) {
		return bun, bun.mm[at : at+n : at+n], nil
	}
	return bun, nil, nil
}

// ReadAt copies out of the pinned mapping, or preads under the pin when
// there is none.
func (h *packHandle) ReadAt(p []byte, off int64) error {
	bun, seg, err := h.pin(off, int64(len(p)))
	if err != nil {
		return err
	}
	defer bun.Release()
	if seg != nil {
		copy(p, seg)
		return nil
	}
	return pread(bun.f, p, h.e.off+off)
}

func (h *packHandle) Len() int64 {
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	return h.e.size
}

// Lend implements Handle with the bundle's mapping itself, the pin its
// lease, so a Remove that drops the bundle defers the munmap. Without a
// mapping it preads into a pooled buffer under the pin instead.
func (h *packHandle) Lend(off, n int64) ([]byte, Lease, error) {
	bun, seg, err := h.pin(off, n)
	if err != nil {
		return nil, nil, err
	}
	if seg != nil {
		return seg, bun, nil
	}
	defer bun.Release()
	return lendPread(bun.f, h.e.off+off, n)
}

func (h *packHandle) Close() error { return nil }
