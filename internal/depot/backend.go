// Package depot implements the IBP depot daemon — the server side of the
// Internet Backplane Protocol (paper §2.1).
//
// A depot turns local storage (memory or a directory of files) into
// network-visible, time-limited, append-only byte arrays. It enforces the
// depot's exposed resource limits: total capacity, maximum allocation
// duration, and allocation expiry.
package depot

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
)

// Backend abstracts the local storage a depot serves ("Local Access" /
// "Physical" layers of the stack diagram). Implementations must be safe for
// concurrent use across distinct handles; per-handle calls other than
// Lend are serialized by the depot.
type Backend interface {
	// Create makes an empty byte array able to hold up to maxSize bytes.
	Create(key string, maxSize int64) (Handle, error)
	// Remove frees the byte array's storage.
	Remove(key string) error
}

// Handle is one byte array held by a backend.
type Handle interface {
	// Lend returns the byte range [off, off+n) pinned: the bytes stay
	// valid and unchanged, across later appends and a Remove alike, until
	// the Lease is released. It may run concurrently with any call on the
	// handle or the backend. A range out of bounds, or storage already
	// released, fails and pins nothing. Every LOAD and COPY sends a lent
	// segment, pinned before the OK.
	Lend(off, n int64) ([]byte, Lease, error)
	// Append writes p at the current end and returns the new length. The
	// callee must not retain p past return (p is typically a pooled buffer
	// the depot releases immediately after); copy if the bytes are needed
	// later.
	Append(p []byte) (int64, error)
	// ReadAt fills p from the given offset. Short reads are errors.
	ReadAt(p []byte, off int64) error
	// Len returns the bytes written so far.
	Len() int64
	// Close releases any per-handle resources (not the stored data).
	Close() error
}

// OwningAppender is an optional Handle capability: AppendOwned appends p,
// a bufpool buffer, like Append, but may keep p itself as the byte array's
// storage instead of copying it, and reports whether it did. When it did,
// p belongs to the handle, the one exception to bufpool's rule 3, and the
// caller must neither touch nor Put it again; when it did not, p is still
// the caller's. The depot hands each STORE payload over this way, so a
// stored byte is copied once, from the socket into its storage.
type OwningAppender interface {
	AppendOwned(p []byte) (n int64, owned bool, err error)
}

// A Lease keeps a lent segment's bytes in place until Release.
type Lease interface{ Release() }

// inRange reports whether [off, off+n) lies within size bytes, without
// overflowing on huge requests.
func inRange(off, n, size int64) bool {
	return off >= 0 && n >= 0 && n <= size-off
}

// ErrAllocFull is returned when an append would exceed the allocation size.
var ErrAllocFull = errors.New("depot: allocation full")

// AllocMeta is the durable metadata of one allocation, persisted by
// backends that survive daemon restarts. The paper's Harvard depot "has
// automatic restart as a cron job" (§3.2) — capabilities held by clients
// must keep working across that restart, so the allocation table cannot
// live only in memory.
type AllocMeta struct {
	MaxSize     int64  `json:"max_size"`
	Expires     int64  `json:"expires_unix"`
	Reliability string `json:"reliability"`
	RefCount    int    `json:"refcount"`
}

// PersistentBackend is a Backend whose byte arrays and allocation metadata
// survive process restarts. The depot detects it at startup and restores
// its allocation table.
type PersistentBackend interface {
	Backend
	// Open reattaches to an existing byte array.
	Open(key string, maxSize int64) (Handle, error)
	// SaveMeta durably records the allocation's metadata.
	SaveMeta(key string, meta AllocMeta) error
	// LoadMeta returns the metadata of every stored allocation.
	LoadMeta() (map[string]AllocMeta, error)
}

// ---- In-memory backend ----

// MemBackend stores byte arrays in process memory. It is the default for
// tests and for simulated depots in the experiment harness. A byte array's
// storage is a bufpool buffer: the first STORE's payload buffer itself,
// later ones appended in place or grown into a larger pooled buffer. The
// buffer goes back to the pool when the array is removed, or when the last
// lease on it is released, whichever is later.
type MemBackend struct {
	mu   sync.Mutex
	data map[string]*memHandle
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{data: make(map[string]*memHandle)}
}

// Create implements Backend.
func (b *MemBackend) Create(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[key]; ok {
		return nil, fmt.Errorf("depot: duplicate key %s", key)
	}
	h := &memHandle{max: maxSize}
	b.data[key] = h
	return h, nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(key string) error {
	b.mu.Lock()
	h, ok := b.data[key]
	delete(b.data, key)
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("depot: remove: no such key %s", key)
	}
	h.free()
	return nil
}

// errRemoved answers an append to, or a lend from, a byte array whose
// storage is already gone.
var errRemoved = errors.New("depot: byte array removed")

// pooledBuf is one bufpool buffer shared by reference count: a mem
// handle's storage, or the pread copy a file or unmapped pack segment is
// lent in. refs counts the handle while the buffer is its storage, plus
// one per lent segment; the last Release puts the buffer back in the pool.
type pooledBuf struct {
	b    []byte // the whole buffer, as bufpool.Get returned it
	refs atomic.Int32
}

func newPooledBuf(p []byte) *pooledBuf {
	m := &pooledBuf{b: p[:cap(p)]}
	m.refs.Store(1)
	return m
}

// Release implements Lease. A nil pooledBuf (an empty array's storage)
// holds nothing.
func (m *pooledBuf) Release() {
	if m != nil && m.refs.Add(-1) == 0 {
		bufpool.Put(m.b)
	}
}

type memHandle struct {
	mu      sync.Mutex
	buf     *pooledBuf // nil until the first append and after Remove
	size    int64      // bytes written: buf.b[:size]
	max     int64
	removed bool
}

// stored returns the bytes written so far; the caller holds h.mu.
func (h *memHandle) stored() []byte {
	if h.buf == nil {
		return nil
	}
	return h.buf.b[:h.size]
}

func (h *memHandle) Append(p []byte) (int64, error) {
	n, _, err := h.append(p, false)
	return n, err
}

// AppendOwned implements OwningAppender: the first append into an empty
// array keeps p as its storage.
func (h *memHandle) AppendOwned(p []byte) (int64, bool, error) {
	return h.append(p, true)
}

func (h *memHandle) append(p []byte, own bool) (int64, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.removed {
		return 0, false, errRemoved
	}
	end := h.size + int64(len(p))
	if end > h.max {
		return h.size, false, ErrAllocFull
	}
	owned := own && h.buf == nil
	switch {
	case owned:
		h.buf = newPooledBuf(p)
	case h.buf != nil && end <= int64(len(h.buf.b)):
		// In place: a lent segment ends at or before h.size, so no reader
		// sees these bytes change.
		copy(h.buf.b[h.size:], p)
	default:
		grown := bufpool.Get(int(end))
		copy(grown, h.stored())
		copy(grown[h.size:], p)
		h.buf.Release()
		h.buf = newPooledBuf(grown)
	}
	h.size = end
	return end, owned, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) error {
	seg, lease, err := h.Lend(off, int64(len(p)))
	if err != nil {
		return err
	}
	copy(p, seg)
	lease.Release()
	return nil
}

func (h *memHandle) Len() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

// Lend implements Handle with the storage itself, no copy: the lease is a
// reference on the storage buffer, so neither a grow nor a Remove can hand
// it back to the pool while the segment is out.
func (h *memHandle) Lend(off, n int64) ([]byte, Lease, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stored()
	if !inRange(off, n, int64(len(s))) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	if h.buf != nil {
		h.buf.refs.Add(1)
	}
	return s[off : off+n : off+n], h.buf, nil
}

// free gives the storage back, now or when its last lease is released.
func (h *memHandle) free() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buf.Release()
	h.buf, h.size, h.removed = nil, 0, true
}

func (h *memHandle) Close() error { return nil }

// ---- File backend ----

// FileBackend stores each byte array as a file under a directory, the way
// a production depot serves a disk volume.
type FileBackend struct {
	dir string
	mu  sync.Mutex
}

// NewFileBackend creates (if needed) and serves the given directory.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: file backend: %w", err)
	}
	return &FileBackend{dir: dir}, nil
}

func (b *FileBackend) path(key string) string {
	return filepath.Join(b.dir, key+".ibp")
}

// Create implements Backend.
func (b *FileBackend) Create(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path := b.path(key)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("depot: create %s: %w", key, err)
	}
	return &fileHandle{f: f, max: maxSize}, nil
}

// Remove implements Backend; it also drops the metadata sidecar.
func (b *FileBackend) Remove(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	os.Remove(b.metaPath(key)) // best effort; data removal decides success
	return os.Remove(b.path(key))
}

func (b *FileBackend) metaPath(key string) string {
	return filepath.Join(b.dir, key+".meta")
}

// Open implements PersistentBackend: it reattaches to an existing byte
// array after a restart.
func (b *FileBackend) Open(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f, err := os.OpenFile(b.path(key), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("depot: open %s: %w", key, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("depot: open %s: %w", key, err)
	}
	return &fileHandle{f: f, size: st.Size(), max: maxSize}, nil
}

// SaveMeta implements PersistentBackend with a JSON sidecar per key.
func (b *FileBackend) SaveMeta(key string, meta AllocMeta) error {
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("depot: meta %s: %w", key, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	tmp := b.metaPath(key) + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("depot: meta %s: %w", key, err)
	}
	return os.Rename(tmp, b.metaPath(key))
}

// LoadMeta implements PersistentBackend.
func (b *FileBackend) LoadMeta() (map[string]AllocMeta, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("depot: load meta: %w", err)
	}
	out := map[string]AllocMeta{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".meta") {
			continue
		}
		key := strings.TrimSuffix(name, ".meta")
		blob, err := os.ReadFile(filepath.Join(b.dir, name))
		if err != nil {
			return nil, fmt.Errorf("depot: load meta %s: %w", key, err)
		}
		var meta AllocMeta
		if err := json.Unmarshal(blob, &meta); err != nil {
			return nil, fmt.Errorf("depot: load meta %s: %w", key, err)
		}
		out[key] = meta
	}
	return out, nil
}

type fileHandle struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	max  int64
}

func (h *fileHandle) Append(p []byte) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.size+int64(len(p)) > h.max {
		return h.size, ErrAllocFull
	}
	n, err := h.f.WriteAt(p, h.size)
	h.size += int64(n)
	if err != nil {
		return h.size, fmt.Errorf("depot: append: %w", err)
	}
	return h.size, nil
}

func (h *fileHandle) ReadAt(p []byte, off int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !inRange(off, int64(len(p)), h.size) {
		return io.ErrUnexpectedEOF
	}
	return pread(h.f, p, off)
}

// pread fills p from f at off; a short read is an error.
func pread(f *os.File, p []byte, off int64) error {
	if _, err := f.ReadAt(p, off); err != nil {
		return fmt.Errorf("depot: read: %w", err)
	}
	return nil
}

// lendPread lends [off, off+n) of f as a pread into a pooled buffer, which
// the lease puts back.
func lendPread(f *os.File, off, n int64) ([]byte, Lease, error) {
	p := bufpool.Get(int(n))
	if err := pread(f, p, off); err != nil {
		bufpool.Put(p)
		return nil, nil, err
	}
	return p, newPooledBuf(p), nil
}

func (h *fileHandle) Len() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size
}

// Lend implements Handle with a pread into a pooled buffer, which the
// lease puts back. The bytes are copied before the depot's OK, so a reap
// that closes the file afterwards cannot cut the LOAD short. (sendfile
// would save the copy but read the file after the OK, under a reap.)
func (h *fileHandle) Lend(off, n int64) ([]byte, Lease, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !inRange(off, n, h.size) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return lendPread(h.f, off, n)
}

func (h *fileHandle) Close() error { return h.f.Close() }
