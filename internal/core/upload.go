package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
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
// different depots; the placer (placeAll) fails a fragment over to the
// next depot when one refuses or is down, and keeps it off any depot that
// already holds an overlapping one.
func (t *Tools) Upload(name string, data []byte, opts UploadOptions) (*exnode.ExNode, error) {
	return t.upload(name, data, opts, nil)
}

// upload is Upload onto depots some of which already hold blocks of the
// file (held), which Augment passes so a new copy keeps off them.
func (t *Tools) upload(name string, data []byte, opts UploadOptions, held occupancy) (*exnode.ExNode, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 1
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
	if opts.EncryptionKey != nil {
		defer bufpool.Put(data) // the placer has returned: nothing reads it
	}
	var plan []planJob
	for r := 0; r < opts.Replicas; r++ {
		for j, ext := range splitUniform(int64(len(data)), opts.fragmentsFor(r)) {
			plan = append(plan, planJob{r, j, ext})
		}
	}
	jobs := placeJobs(plan, depots, opts.Placement)
	for i := range jobs {
		jobs[i].payload = data[jobs[i].ext.Start:jobs[i].ext.End]
	}
	x.Mappings, err = t.placeAll(fmt.Sprintf("upload %q", name), jobs, held, opts)
	return validated(x, err)
}

// validated returns the exNode a write built, once the placement succeeded
// and the mappings hold together.
func validated(x *exnode.ExNode, err error) (*exnode.ExNode, error) {
	if err == nil {
		err = x.Validate()
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// sealIfRequested encrypts data for upload when a key is given, recording
// the cipher metadata on the exNode. It returns the bytes to store: data
// itself, or the ciphertext in a bufpool buffer, which the caller puts
// back once the placer has returned.
func (t *Tools) sealIfRequested(x *exnode.ExNode, data, key []byte) ([]byte, error) {
	if key == nil {
		return data, nil
	}
	iv, err := sealing.NewIV()
	if err != nil {
		return nil, err
	}
	sealed := bufpool.Get(len(data))
	if err := sealing.XORKeyStreamAt(sealed, data, key, iv, 0); err != nil {
		bufpool.Put(sealed)
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

// UploadLayout stores data according to an explicit layout. A layout names
// one depot per fragment, so there is no failover, and that single
// candidate is also what exempts it from the placer's overlap rule: the
// experiment harness's figures co-locate on purpose.
func (t *Tools) UploadLayout(name string, data []byte, layout Layout, opts UploadOptions) (*exnode.ExNode, error) {
	x := exnode.New(name, int64(len(data)))
	x.Created = t.clock().Now()
	data, err := t.sealIfRequested(x, data, opts.EncryptionKey)
	if err != nil {
		return nil, err
	}
	if opts.EncryptionKey != nil {
		defer bufpool.Put(data)
	}
	var jobs []placeJob
	for r, frags := range layout {
		for j, f := range frags {
			ext := exnode.Extent{Start: f.Offset, End: f.Offset + f.Length}
			if ext.Start < 0 || ext.End > int64(len(data)) || ext.Len() <= 0 {
				return nil, fmt.Errorf("core: layout fragment [%d,%d) outside data of %d bytes",
					ext.Start, ext.End, len(data))
			}
			jobs = append(jobs, placeJob{
				planJob:    planJob{r, j, ext},
				candidates: []lbone.DepotInfo{f.Depot},
				payload:    data[ext.Start:ext.End],
			})
		}
	}
	x.Mappings, err = t.placeAll(fmt.Sprintf("layout upload %q", name), jobs, nil, opts)
	return validated(x, err)
}
