package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
)

// Refresh extends the time limits of every IBP byte array composing the
// file to now+duration (paper §2.3). It updates mapping expirations in
// place and returns the number refreshed plus the first error encountered
// (refreshing continues past individual failures — a partially refreshed
// exNode is still better than an expired one). Mappings on the same depot
// are extended in one pipelined BATCH round trip; per-op results keep
// partial failure composable.
func (t *Tools) Refresh(x *exnode.ExNode, duration time.Duration) (int, error) {
	var firstErr error
	fail := func(m *exnode.Mapping, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core: refresh %s segment [%d,%d): %w", m.Depot, m.Offset, m.End(), err)
		}
	}
	// Group refreshable mappings by depot, preserving order within a group.
	byDepot := map[string][]*exnode.Mapping{}
	var addrs []string
	for _, m := range x.Mappings {
		if m.Manage.IsZero() {
			continue
		}
		if t.healthBlocked(m.Manage.Addr) {
			// The circuit is open: Extend would fail fast anyway, and the
			// failure would count against nothing useful. Skip it; the next
			// Refresh after the breaker recloses will catch the mapping up.
			t.logf("core: refresh %s segment [%d,%d): skipped, depot circuit open", m.Depot, m.Offset, m.End())
			fail(m, health.ErrCircuitOpen)
			continue
		}
		if _, ok := byDepot[m.Manage.Addr]; !ok {
			addrs = append(addrs, m.Manage.Addr)
		}
		byDepot[m.Manage.Addr] = append(byDepot[m.Manage.Addr], m)
	}
	refreshed := 0
	for _, addr := range addrs {
		ms := byDepot[addr]
		// One EXTEND per mapping, chunked to the batch size cap.
		for lo := 0; lo < len(ms); lo += ibp.MaxBatchOps {
			hi := lo + ibp.MaxBatchOps
			if hi > len(ms) {
				hi = len(ms)
			}
			chunk := ms[lo:hi]
			ops := make([]ibp.BatchOp, len(chunk))
			for i, m := range chunk {
				ops[i] = ibp.ExtendOp(m.Manage, duration)
			}
			res, err := t.IBP.Batch(addr, ops)
			if err != nil {
				// The whole exchange failed (dial error, circuit open):
				// every mapping in the chunk stays unrefreshed.
				for _, m := range chunk {
					fail(m, err)
				}
				continue
			}
			for i, m := range chunk {
				if res[i].Err != nil {
					fail(m, res[i].Err)
					continue
				}
				m.Expires = res[i].Expires
				refreshed++
			}
		}
	}
	return refreshed, firstErr
}

// AugmentOptions parameterize Augment.
type AugmentOptions struct {
	// Replicas is how many new copies to add (default 1).
	Replicas int
	// Fragments per new replica (default 1).
	Fragments int
	// Near places the new replicas close to this point (paper §2.3:
	// "these replicas may have a specified network proximity").
	Near *geo.Point
	// Depots bypasses discovery.
	Depots []lbone.DepotInfo
	// Duration for the new allocations.
	Duration time.Duration
	// Checksum new fragments.
	Checksum bool
	// Download tuning used to fetch the current contents.
	Download DownloadOptions
	// ThirdParty replicates with depot-to-depot COPY transfers instead of
	// downloading and re-uploading: the data never passes through this
	// client. Requires a fully-available source replica; fragment
	// boundaries (and checksums) of that replica are preserved.
	ThirdParty bool
}

// Augment adds replicas to the exNode and returns an updated copy: it
// downloads the file's current contents, uploads the new copies, and
// merges the mappings (paper §2.3). The new copies keep off every depot
// that already holds a reachable block of the same byte range.
func (t *Tools) Augment(x *exnode.ExNode, opts AugmentOptions) (*exnode.ExNode, error) {
	return t.augment(x, opts, t.reachable(x))
}

// augment is Augment for a caller (Maintain) that has already probed x:
// held is the set of x's mappings that answered.
func (t *Tools) augment(x *exnode.ExNode, opts AugmentOptions, held occupancy) (*exnode.ExNode, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	// New copies number on from the highest replica index in use.
	base := 0
	for _, m := range x.Mappings {
		if m.IsReplica() && m.Replica+1 > base {
			base = m.Replica + 1
		}
	}
	var added []*exnode.Mapping
	if opts.ThirdParty {
		var err error
		if added, err = t.augmentThirdParty(x, opts, held); err != nil {
			return nil, err
		}
	} else {
		dlOpts := opts.Download
		if x.Encrypted() && dlOpts.DecryptionKey == nil {
			// Replicate the sealed bytes verbatim: augment never needs the key.
			dlOpts.Raw = true
		}
		data, _, err := t.Download(x, dlOpts)
		if err != nil {
			return nil, fmt.Errorf("core: augment: fetching current contents: %w", err)
		}
		addition, err := t.upload(x.Name, data, UploadOptions{
			Replicas:  opts.Replicas,
			Fragments: opts.Fragments,
			Near:      opts.Near,
			Depots:    opts.Depots,
			Duration:  opts.Duration,
			Checksum:  opts.Checksum,
		}, held)
		// Download's result is pool-backed and upload does not retain it past
		// return; release it on every path before looking at the error.
		bufpool.Put(data)
		if err != nil {
			return nil, fmt.Errorf("core: augment: %w", err)
		}
		added = addition.Mappings
	}
	out := x.Clone()
	for _, m := range added {
		m.Replica += base
		out.Add(m)
	}
	return out, out.Validate()
}

// augmentThirdParty makes the new replicas' fragments with depot-to-depot
// COPY: each fragment of a fully-available source replica is allocated on
// a target depot and pushed there by the depot that holds it.
func (t *Tools) augmentThirdParty(x *exnode.ExNode, opts AugmentOptions, held occupancy) ([]*exnode.Mapping, error) {
	targets, err := t.placementDepots("third-party augment", opts.Depots, opts.Duration, opts.Near)
	if err != nil {
		return nil, err
	}
	source, err := t.pickAvailableReplica(x, held)
	if err != nil {
		return nil, fmt.Errorf("core: third-party augment: %w", err)
	}
	plan := make([]planJob, 0, opts.Replicas*len(source))
	for r := 0; r < opts.Replicas; r++ {
		for j, src := range source {
			plan = append(plan, planJob{r, j, exnode.Extent{Start: src.Offset, End: src.End()}})
		}
	}
	jobs := placeJobs(plan, targets, PlacementRotate)
	for i := range jobs {
		jobs[i].src = source[jobs[i].j]
	}
	return t.placeAll("third-party augment", jobs, held, UploadOptions{Duration: opts.Duration})
}

// pickAvailableReplica returns the fragments of a replica that fully
// covers the file with every fragment in reachable.
func (t *Tools) pickAvailableReplica(x *exnode.ExNode, reachable occupancy) ([]*exnode.Mapping, error) {
	for _, r := range t.rankReplicas(x) {
		ms := x.ReplicaMappings(r)
		complete := len(ms) > 0
		var pos int64
		for _, m := range ms {
			if m.Offset > pos || !reachable[m] {
				complete = false
				break
			}
			pos = max(pos, m.End())
		}
		if complete && pos >= x.Size {
			return ms, nil
		}
	}
	return nil, errors.New("no fully-available replica to copy from")
}

// rankReplicas orders replica indices by total forecast bandwidth of their
// fragments (highest first), falling back to index order.
func (t *Tools) rankReplicas(x *exnode.ExNode) []int {
	var replicas []int
	score := map[int]float64{}
	for _, m := range x.Mappings {
		if !m.IsReplica() {
			continue
		}
		if _, seen := score[m.Replica]; !seen {
			score[m.Replica] = 0
			replicas = append(replicas, m.Replica)
		}
		if t.NWS != nil {
			if bw, ok := t.NWS.Forecast(t.Site, m.Read.Addr, nws.Bandwidth); ok {
				score[m.Replica] += bw
			}
		}
	}
	sort.SliceStable(replicas, func(i, j int) bool {
		return score[replicas[i]] > score[replicas[j]]
	})
	return replicas
}

// TrimOptions select which fragments Trim removes.
type TrimOptions struct {
	// Indices removes specific mappings by index into x.Mappings.
	Indices []int
	// Expired removes every mapping whose expiration has passed.
	Expired bool
	// Replica, when non-nil, removes all mappings of that replica index.
	Replica *int
	// DeleteFromIBP also decrements the IBP allocations (paper §2.3:
	// "the fragments may be only deleted from the exnode, and not from
	// IBP").
	DeleteFromIBP bool
}

// Trim deletes fragments from the exNode and returns a new exNode (paper
// §2.3). Unless TrimOptions.DeleteFromIBP is set the byte arrays remain on
// their depots.
func (t *Tools) Trim(x *exnode.ExNode, opts TrimOptions) (*exnode.ExNode, error) {
	if opts.Replica == nil && len(opts.Indices) == 0 && !opts.Expired {
		return nil, errors.New("core: trim: nothing selected")
	}
	doomedIdx := map[int]bool{}
	for _, i := range opts.Indices {
		if i < 0 || i >= len(x.Mappings) {
			return nil, fmt.Errorf("core: trim: index %d out of range", i)
		}
		doomedIdx[i] = true
	}
	now := t.clock().Now()
	out := x.Clone()
	var kept []*exnode.Mapping
	for i, m := range out.Mappings {
		doomed := doomedIdx[i]
		if opts.Expired && !m.Expires.IsZero() && now.After(m.Expires) {
			doomed = true
		}
		if opts.Replica != nil && m.IsReplica() && m.Replica == *opts.Replica {
			doomed = true
		}
		if !doomed {
			kept = append(kept, m)
			continue
		}
		if opts.DeleteFromIBP && !m.Manage.IsZero() {
			if _, err := t.IBP.Delete(m.Manage); err != nil {
				t.logf("core: trim: deleting segment on %s: %v", m.Depot, err)
			}
		}
	}
	out.Mappings = kept
	return out, out.Validate()
}

// Route moves the file toward a new network location by combining augment
// and trim (paper §2.3 "Routing"): first replicate near the target, then
// drop the old replicas.
func (t *Tools) Route(x *exnode.ExNode, near geo.Point, opts AugmentOptions) (*exnode.ExNode, error) {
	opts.Near = &near
	augmented, err := t.Augment(x, opts)
	if err != nil {
		return nil, fmt.Errorf("core: route: %w", err)
	}
	// Drop every replica that existed before augmentation.
	old := map[int]bool{}
	for _, m := range x.Mappings {
		if m.IsReplica() {
			old[m.Replica] = true
		}
	}
	out := augmented
	for r := range old {
		r := r
		out, err = t.Trim(out, TrimOptions{Replica: &r, DeleteFromIBP: true})
		if err != nil {
			return nil, fmt.Errorf("core: route: trimming old replica %d: %w", r, err)
		}
	}
	return out, nil
}
