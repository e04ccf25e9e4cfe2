package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/integrity"
	"repro/internal/lbone"
	"repro/internal/sealing"
)

// UploadOptions parameterize Upload (paper §2.3: "This upload may be
// parameterized in a variety of ways").
type UploadOptions struct {
	// Replicas is the number of full copies to store (default 1).
	Replicas int
	// Fragments is the number of pieces each replica is striped into
	// (default 1). FragmentsPerReplica overrides it per copy.
	Fragments           int
	FragmentsPerReplica []int
	// Duration is the allocation lifetime (default DefaultDuration).
	Duration time.Duration
	// Reliability requested from depots (default Hard).
	Reliability ibp.Reliability
	// Near orders depot choice by proximity to this point (default: the
	// client's own location).
	Near *geo.Point
	// Depots, when non-nil, bypasses L-Bone discovery and places
	// fragments round-robin on exactly these depots.
	Depots []lbone.DepotInfo
	// Checksum records a SHA-256 digest per fragment for end-to-end
	// verification on download. With encryption, digests cover the
	// ciphertext, so integrity is checkable without the key.
	Checksum bool
	// EncryptionKey, when set (32 bytes), seals the file with AES-256-CTR
	// before upload: depots only ever store ciphertext (paper §4 future
	// work). Downloads then require DownloadOptions.DecryptionKey.
	EncryptionKey []byte
	// Parallelism uploads fragments concurrently (0 or 1 = sequential,
	// the paper's model; >1 = the upload-side counterpart of threaded
	// downloads).
	Parallelism int
	// Placement selects the depot-assignment policy (default
	// PlacementRotate; PlacementSiteDiverse spreads copies of each byte
	// range across sites).
	Placement Placement
	// Report, when non-nil, is filled with the per-fragment placement
	// timeline (every depot tried, failures included) — the upload-side
	// counterpart of the download Report. It is written even when Upload
	// fails, so callers can see how far the upload got.
	Report *UploadReport
}

// ErrUploadAborted marks fragments that were never attempted because a
// sibling fragment already failed: the first real error aborts the upload
// and is what Upload returns.
var ErrUploadAborted = errors.New("core: upload aborted after sibling fragment failed")

func (o *UploadOptions) fragmentsFor(replica int) int {
	if o.FragmentsPerReplica != nil && replica < len(o.FragmentsPerReplica) {
		if n := o.FragmentsPerReplica[replica]; n > 0 {
			return n
		}
	}
	if o.Fragments > 0 {
		return o.Fragments
	}
	return 1
}

// Upload stores data into the network and returns an exNode describing it.
// Fragments are placed round-robin over the chosen depots, with each
// replica's placement rotated so copies of the same extent land on
// different depots when enough exist.
func (t *Tools) Upload(name string, data []byte, opts UploadOptions) (*exnode.ExNode, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = DefaultDuration
	}
	if opts.Reliability == "" {
		opts.Reliability = ibp.Hard
	}
	depots, err := t.placementDepots("upload", opts.Depots, opts.Duration, opts.Near)
	if err != nil {
		return nil, err
	}

	x := exnode.New(name, int64(len(data)))
	x.Created = t.clock().Now()
	data, err = t.sealIfRequested(x, data, opts.EncryptionKey)
	if err != nil {
		return nil, err
	}
	// Build the fragment job list, then place each fragment — rotating
	// each replica's starting depot so copies of the same extent land on
	// different depots whenever enough exist, and failing over to the next
	// depot when one refuses or is down.
	var jobs []planJob
	for r := 0; r < opts.Replicas; r++ {
		for j, ext := range splitUniform(int64(len(data)), opts.fragmentsFor(r)) {
			jobs = append(jobs, planJob{r, j, ext})
		}
	}
	candidates := planPlacements(jobs, depots, opts.Placement)
	rep := opts.Report
	if rep == nil {
		rep = &UploadReport{}
	}
	t0 := t.clock().Now()
	rep.Fragments = make([]FragmentReport, len(jobs))
	for i, jb := range jobs {
		rep.Fragments[i] = FragmentReport{Replica: jb.replica, Start: jb.ext.Start, End: jb.ext.End}
	}

	// First-error abort: once any fragment exhausts its candidates, siblings
	// stop starting new placement attempts — there is no point filling
	// depots with fragments of an upload that cannot complete.
	abort := make(chan struct{})
	var abortOnce sync.Once
	aborted := func() bool {
		select {
		case <-abort:
			return true
		default:
			return false
		}
	}
	results := make([]*exnode.Mapping, len(jobs))
	errs := make([]error, len(jobs))
	place := func(i int) (*exnode.Mapping, error) {
		jb := jobs[i]
		fr := &rep.Fragments[i]
		var lastErr error
		for _, depot := range t.preferHealthy(candidates[i]) {
			if aborted() {
				if lastErr == nil {
					lastErr = ErrUploadAborted
				}
				return nil, lastErr
			}
			a0 := t.clock().Now()
			m, err := t.uploadFragment(name, data, jb.ext, depot, jb.replica, opts)
			a := Attempt{Depot: depot.Name, Addr: depot.Addr, Start: a0, Duration: t.clock().Since(a0)}
			if err == nil {
				a.Bytes = jb.ext.Len()
				fr.Trail = append(fr.Trail, a)
				fr.Depot = depot.Name
				fr.Addr = depot.Addr
				return m, nil
			}
			a.Err = err.Error()
			fr.Trail = append(fr.Trail, a)
			lastErr = err
			t.logf("core: upload %q fragment [%d,%d): %v; trying next depot",
				name, jb.ext.Start, jb.ext.End, err)
		}
		if lastErr == nil {
			lastErr = errors.New("core: no candidate depots for fragment")
		}
		return nil, lastErr
	}
	run := func(i int) {
		if aborted() {
			errs[i] = ErrUploadAborted
			return
		}
		results[i], errs[i] = place(i)
		if errs[i] != nil && !errors.Is(errs[i], ErrUploadAborted) {
			abortOnce.Do(func() { close(abort) })
		}
	}
	if opts.Parallelism <= 1 {
		for i := range jobs {
			run(i)
		}
	} else {
		idx := make(chan int)
		done := make(chan struct{})
		for w := 0; w < opts.Parallelism; w++ {
			go func() {
				for i := range idx {
					run(i)
				}
				done <- struct{}{}
			}()
		}
		for i := range jobs {
			idx <- i
		}
		close(idx)
		for w := 0; w < opts.Parallelism; w++ {
			<-done
		}
	}

	var firstErr error
	for i, err := range errs {
		rep.Fragments[i].Err = err
		if err != nil && firstErr == nil && !errors.Is(err, ErrUploadAborted) {
			firstErr = err
		}
		if err != nil {
			if errors.Is(err, ErrUploadAborted) && len(rep.Fragments[i].Trail) == 0 {
				rep.Aborted++
			} else {
				rep.Failovers += len(rep.Fragments[i].Trail)
			}
		} else {
			rep.Failovers += len(rep.Fragments[i].Trail) - 1
		}
	}
	if firstErr == nil {
		// All placement errors were abort markers — should not happen, but
		// never return nil with a failed upload.
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		// The upload failed: reclaim every allocation that did succeed so
		// depots are not left holding fragments nothing references.
		var stored []ibp.Cap
		for _, m := range results {
			if m != nil {
				stored = append(stored, m.Manage)
			}
		}
		rep.Cleaned += t.release("upload", stored)
		rep.Duration = t.clock().Since(t0)
		rep.Bytes = int64(len(data))
		return nil, firstErr
	}
	for i := range jobs {
		x.Add(results[i])
	}
	rep.Duration = t.clock().Since(t0)
	rep.Bytes = int64(len(data))
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}

// uploadFragment stores one extent of data on one depot and returns its
// mapping. The allocate and store run as one pipelined BATCH round trip
// (falling back to sequential verbs against depots that predate BATCH).
func (t *Tools) uploadFragment(name string, data []byte, ext exnode.Extent, depot lbone.DepotInfo, replica int, opts UploadOptions) (*exnode.Mapping, error) {
	payload := data[ext.Start:ext.End]
	set, err := t.IBP.AllocateStore(depot.Addr, ext.Len(), opts.Duration, opts.Reliability, payload)
	if err != nil {
		if !set.Manage.IsZero() {
			// The allocation succeeded but the store did not: best-effort
			// cleanup of the stranded byte array.
			t.IBP.Delete(set.Manage)
		}
		return nil, fmt.Errorf("core: upload %q fragment [%d,%d) on %s: %w",
			name, ext.Start, ext.End, depot.Name, err)
	}
	m := &exnode.Mapping{
		Offset:  ext.Start,
		Length:  ext.Len(),
		Read:    set.Read,
		Write:   set.Write,
		Manage:  set.Manage,
		Replica: replica,
		Depot:   depot.Name,
		Expires: t.clock().Now().Add(opts.Duration),
	}
	if opts.Checksum {
		m.Checksum = integrity.Sum(payload)
	}
	return m, nil
}

// sealIfRequested encrypts data for upload when a key is given, recording
// the cipher metadata on the exNode. It returns the bytes to store.
func (t *Tools) sealIfRequested(x *exnode.ExNode, data, key []byte) ([]byte, error) {
	if key == nil {
		return data, nil
	}
	iv, err := sealing.NewIV()
	if err != nil {
		return nil, err
	}
	sealed, err := sealing.Seal(key, iv, data)
	if err != nil {
		return nil, fmt.Errorf("core: sealing %q: %w", x.Name, err)
	}
	x.Cipher = sealing.CipherAES256CTR
	x.IV = sealing.EncodeIV(iv)
	return sealed, nil
}

// splitUniform divides [0,size) into n near-equal extents.
func splitUniform(size int64, n int) []exnode.Extent {
	if n <= 0 {
		n = 1
	}
	if int64(n) > size && size > 0 {
		n = int(size)
	}
	out := make([]exnode.Extent, 0, n)
	var start int64
	for i := 0; i < n; i++ {
		end := size * int64(i+1) / int64(n)
		if end > start {
			out = append(out, exnode.Extent{Start: start, End: end})
		}
		start = end
	}
	return out
}

// FragmentSpec places one fragment of one replica explicitly — the
// experiment harness uses layouts to reconstruct the paper's Figures 5, 8
// and 15 exactly.
type FragmentSpec struct {
	Depot  lbone.DepotInfo
	Offset int64
	Length int64
}

// Layout is a full explicit placement: one fragment list per replica.
type Layout [][]FragmentSpec

// UploadLayout stores data according to an explicit layout.
func (t *Tools) UploadLayout(name string, data []byte, layout Layout, opts UploadOptions) (_ *exnode.ExNode, err error) {
	if opts.Duration <= 0 {
		opts.Duration = DefaultDuration
	}
	if opts.Reliability == "" {
		opts.Reliability = ibp.Hard
	}
	x := exnode.New(name, int64(len(data)))
	x.Created = t.clock().Now()
	data, err = t.sealIfRequested(x, data, opts.EncryptionKey)
	if err != nil {
		return nil, err
	}
	// A layout names one depot per fragment, so there is no failover: any
	// error below fails the upload, and what it already stored goes back.
	var stored []ibp.Cap
	defer func() {
		if err != nil {
			t.release("layout upload", stored)
		}
	}()
	for r, frags := range layout {
		for _, f := range frags {
			ext := exnode.Extent{Start: f.Offset, End: f.Offset + f.Length}
			if ext.Start < 0 || ext.End > int64(len(data)) || ext.Len() <= 0 {
				return nil, fmt.Errorf("core: layout fragment [%d,%d) outside data of %d bytes",
					ext.Start, ext.End, len(data))
			}
			m, err := t.uploadFragment(name, data, ext, f.Depot, r, opts)
			if err != nil {
				return nil, err
			}
			stored = append(stored, m.Manage)
			x.Add(m)
		}
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}
