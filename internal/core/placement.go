package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/integrity"
	"repro/internal/lbone"
)

// placementDepots returns the depots op may place new data on: the
// caller's explicit list when it gave one, else the L-Bone's depots that
// grant duration (default DefaultDuration), nearest first to near (default:
// the client's own location). An L-Bone that cannot answer is a classified
// discovery error, never an empty list.
func (t *Tools) placementDepots(op string, explicit []lbone.DepotInfo, duration time.Duration, near *geo.Point) ([]lbone.DepotInfo, error) {
	if duration <= 0 {
		duration = DefaultDuration
	}
	depots := explicit
	if depots == nil {
		if t.LBone == nil {
			return nil, fmt.Errorf("core: %s needs explicit depots or an L-Bone", op)
		}
		if near == nil {
			near = &t.Loc
		}
		var err error
		depots, err = t.LBone.Query(lbone.Requirements{MinDuration: duration, Near: near})
		if err != nil {
			return nil, discoveryErr("depot discovery", err)
		}
	}
	if len(depots) == 0 {
		return nil, fmt.Errorf("core: no depots available for %s", op)
	}
	return depots, nil
}

// Placement selects the depot-assignment policy for uploads — a first
// concrete instance of the replication-strategy research the paper
// motivates ("the actual best replication strategy... is a matter of
// future research", §2.3).
type Placement int

// Placement policies.
const (
	// PlacementRotate round-robins fragments over the depot list,
	// rotating each replica's start (the default; reproduces the paper's
	// simple stripes).
	PlacementRotate Placement = iota
	// PlacementSiteDiverse additionally pushes copies of the same byte
	// range onto different *sites*, so a whole-site outage (a campus
	// network cut, the common failure in the paper's tests) cannot take
	// out every copy of any extent.
	PlacementSiteDiverse
)

// planJob is one fragment to place.
type planJob struct {
	replica int
	j       int
	ext     exnode.Extent
}

// planPlacements returns, per job, the ordered depot candidates to try.
// For PlacementRotate the order is the classic rotation. For
// PlacementSiteDiverse candidates are ordered by how few already-planned
// copies of the overlapping byte range their site holds, so the first
// choice maximizes site diversity; later candidates degrade gracefully
// and double as failover targets.
func planPlacements(jobs []planJob, depots []lbone.DepotInfo, policy Placement) [][]lbone.DepotInfo {
	out := make([][]lbone.DepotInfo, len(jobs))
	if policy == PlacementRotate || len(depots) == 0 {
		for i, jb := range jobs {
			order := make([]lbone.DepotInfo, len(depots))
			for a := range depots {
				order[a] = depots[(jb.j+jb.replica+a)%len(depots)]
			}
			out[i] = order
		}
		return out
	}

	// Site-diverse: greedy plan. planned[k] records the site chosen for
	// job k (first candidate), so later jobs can count per-site overlap.
	type placed struct {
		ext  exnode.Extent
		site string
	}
	var plan []placed
	overlapCount := func(site string, ext exnode.Extent) int {
		n := 0
		for _, p := range plan {
			if p.site == site && overlap(p.ext, ext) {
				n++
			}
		}
		return n
	}
	for i, jb := range jobs {
		order := append([]lbone.DepotInfo(nil), depots...)
		// Rotate first for tie-breaking fairness, then stable-sort by
		// overlap so least-loaded sites come first.
		rot := (jb.j + jb.replica) % len(order)
		order = append(order[rot:], order[:rot]...)
		sort.SliceStable(order, func(a, b int) bool {
			return overlapCount(order[a].Site, jb.ext) < overlapCount(order[b].Site, jb.ext)
		})
		out[i] = order
		plan = append(plan, placed{ext: jb.ext, site: order[0].Site})
	}
	return out
}

// ErrNoDisjointDepot fails a block whose every candidate depot either
// refused it or already holds an overlapping block of the same file; it
// wraps the last depot error. The write aborts and is reclaimed like any
// other placement failure: a detected outcome, never a silent co-location.
var ErrNoDisjointDepot = errors.New("core: no candidate depot is free of the file's overlapping blocks")

// occupancy is the set of a file's mappings that depots hold, and answer
// for, before a write starts (see Tools.reachable).
type occupancy map[*exnode.Mapping]bool

func (o occupancy) holds(addr string, ext exnode.Extent) bool {
	for m := range o {
		if m.Manage.Addr == addr && m.Overlaps(ext.Start, ext.End) {
			return true
		}
	}
	return false
}

func overlap(a, b exnode.Extent) bool { return a.Start < b.End && b.Start < a.End }

// placeJob is one block for the placer to put on a depot. Its ext is the
// file range the block protects, which is what the overlap rule compares.
type placeJob struct {
	planJob
	candidates []lbone.DepotInfo // depots to try, in order (planPlacements)
	// payload is stored with one ALLOCATE+STORE round trip; with src set the
	// block is src's bytes instead, allocated and pushed there by COPY.
	payload []byte
	src     *exnode.Mapping

	on      string // address of the depot the job has claimed or stored on
	crowded bool   // the overlap rule is waived for this job (see placeAll)
}

// size is how many bytes the block occupies on its depot.
func (jb *placeJob) size() int64 {
	if jb.src != nil {
		return jb.src.Length
	}
	return int64(len(jb.payload))
}

// digests starts, on wg, one goroutine per distinct payload that hashes it,
// and returns for each payload job the digest it shares with every job
// whose payload is the same bytes; the sum is there once wg is done. Same
// bytes means the same backing memory — first byte and length — not the
// same file range: the replicas of a fragment are one subslice of the
// write's data, while every block of a coding group covers the whole file
// and holds different bytes.
func digests(jobs []placeJob, wg *sync.WaitGroup) []*string {
	same := func(a, b []byte) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	out := make([]*string, len(jobs))
	for i := range jobs {
		if jobs[i].src != nil {
			continue
		}
		for k := 0; k < i && out[i] == nil; k++ {
			if out[k] != nil && same(jobs[k].payload, jobs[i].payload) {
				out[i] = out[k]
			}
		}
		if out[i] == nil {
			sum, payload := new(string), jobs[i].payload
			out[i] = sum
			wg.Add(1)
			go func() {
				defer wg.Done()
				*sum = integrity.Sum(payload)
			}()
		}
	}
	return out
}

// placeJobs pairs each planned block with its candidate depots.
func placeJobs(plan []planJob, depots []lbone.DepotInfo, policy Placement) []placeJob {
	candidates := planPlacements(plan, depots, policy)
	jobs := make([]placeJob, len(plan))
	for i, p := range plan {
		jobs[i] = placeJob{planJob: p, candidates: candidates[i]}
	}
	return jobs
}

// placeAll is the one placement loop behind every write path. It puts each
// job on the first of its candidates that takes it — healthy depots first,
// failing over down the list — in order or on opts.Parallelism goroutines,
// and returns one replica mapping per job. Of opts it also reads Duration
// and Reliability (defaulting both), Checksum (each distinct payload is
// hashed once, however many jobs store it, while the STOREs run) and
// Report. The first job to run out of candidates aborts the rest
// (ErrUploadAborted marks those never tried), whatever was stored is
// deleted again, and the report keeps the trail of every attempt either
// way.
//
// One rule holds across jobs: no depot takes a block whose file range
// overlaps a block of the same file it already holds, be that one stored
// earlier in this call or one in held — copies that share a depot die
// together. A job claims its depot under the lock before the attempt and
// gives it up on failure, so parallel workers obey the rule too; a job left
// with only failed or occupied candidates fails with ErrNoDisjointDepot.
// The rule is waived for a job only when its candidates, less the depots in
// held, are too few to keep it apart from every job that overlaps it even
// with all of them healthy (two replicas on one depot, RS 3+2 on three, a
// layout's single candidate): the caller's own list states the co-location,
// and candidates are taken as they come. So a healthy list never fails the
// rule, whatever the stripe shapes or worker order, and failed depots never
// waive it.
func (t *Tools) placeAll(op string, jobs []placeJob, held occupancy, opts UploadOptions) ([]*exnode.Mapping, error) {
	if opts.Duration <= 0 {
		opts.Duration = DefaultDuration
	}
	if opts.Reliability == "" {
		opts.Reliability = ibp.Hard
	}
	rep := opts.Report
	if rep == nil {
		rep = &UploadReport{}
	}
	t0 := t.clock().Now()
	rep.Fragments = make([]FragmentReport, len(jobs))
	rep.Bytes = 0
	for i := range jobs {
		jb := &jobs[i]
		rep.Fragments[i] = FragmentReport{Replica: jb.replica, Start: jb.ext.Start, End: jb.ext.End}
		rep.Bytes = max(rep.Bytes, jb.ext.End) // the jobs of a write cover its file from 0
		// Each overlapping job takes at most one depot out of this one's
		// reach: with more free candidates than those, one is always left.
		room := 0
		for _, d := range jb.candidates {
			if !held.holds(d.Addr, jb.ext) {
				room++
			}
		}
		for k := range jobs {
			if k != i && overlap(jobs[k].ext, jb.ext) {
				room--
			}
		}
		jb.crowded = room <= 0
	}

	// claim takes the depot at addr for job i unless the rule forbids it,
	// and reports whether the depot already holds an overlapping block.
	var mu sync.Mutex // guards every job's `on`, and rep.Failovers
	claim := func(i int, addr string) (shared bool) {
		jb := &jobs[i]
		mu.Lock()
		defer mu.Unlock()
		shared = held.holds(addr, jb.ext)
		for k := 0; k < len(jobs) && !shared; k++ {
			shared = k != i && jobs[k].on == addr && overlap(jobs[k].ext, jb.ext)
		}
		if !shared || jb.crowded {
			jb.on = addr
		}
		return shared
	}

	// With checksums on, each distinct payload is hashed while the first
	// STOREs are in flight; every hash is joined before placeAll returns,
	// so none outlives the caller's hold on the payloads.
	var hashing sync.WaitGroup
	var sums []*string
	if opts.Checksum {
		sums = digests(jobs, &hashing)
	}

	// First-error abort: once any job exhausts its candidates, siblings stop
	// starting new attempts — there is no point filling depots with blocks
	// of a write that cannot complete.
	var aborted atomic.Bool
	results := make([]*exnode.Mapping, len(jobs))
	place := func(i int) (*exnode.Mapping, error) {
		jb := &jobs[i]
		fr := &rep.Fragments[i]
		var lastErr error
		occupied := false
		for _, depot := range t.preferHealthy(jb.candidates) {
			if aborted.Load() {
				if lastErr == nil {
					lastErr = ErrUploadAborted
				}
				return nil, lastErr
			}
			if shared := claim(i, depot.Addr); shared && !jb.crowded {
				occupied = true
				continue
			} else if shared {
				t.logf("core: %s block [%d,%d): co-locating on %s, the depot list is too short to keep it off every block it overlaps",
					op, jb.ext.Start, jb.ext.End, depot.Name)
			}
			a0 := t.clock().Now()
			set, err := t.put(jb, depot.Addr, opts)
			a := Attempt{Depot: depot.Name, Addr: depot.Addr, Start: a0, Duration: t.clock().Since(a0)}
			if err == nil {
				a.Bytes = jb.size()
				fr.Trail = append(fr.Trail, a)
				fr.Depot = depot.Name
				fr.Addr = depot.Addr
				m := &exnode.Mapping{
					Offset: jb.ext.Start, Length: jb.ext.Len(), Replica: jb.replica,
					Read: set.Read, Write: set.Write, Manage: set.Manage,
					Depot: depot.Name, Expires: t.clock().Now().Add(opts.Duration),
				}
				if jb.src != nil {
					m.Checksum = jb.src.Checksum // same bytes, same digest
				}
				return m, nil
			}
			mu.Lock()
			jb.on = ""
			rep.Failovers++
			mu.Unlock()
			lastErr = fmt.Errorf("core: %s block [%d,%d) on %s: %w", op, jb.ext.Start, jb.ext.End, depot.Name, err)
			a.Err = lastErr.Error()
			fr.Trail = append(fr.Trail, a)
			t.logf("%v; trying next depot", lastErr)
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("core: %s block [%d,%d): no candidate depot took it", op, jb.ext.Start, jb.ext.End)
		}
		if occupied {
			lastErr = fmt.Errorf("%w: %w", ErrNoDisjointDepot, lastErr)
		}
		return nil, lastErr
	}
	forEach(len(jobs), opts.Parallelism, func(i int) {
		fr := &rep.Fragments[i]
		results[i], fr.Err = place(i) // ErrUploadAborted, untried, once a sibling has failed
		if fr.Err != nil && !errors.Is(fr.Err, ErrUploadAborted) {
			aborted.Store(true)
		}
	})

	hashing.Wait()
	for i, sum := range sums {
		if sum != nil && results[i] != nil {
			results[i].Checksum = *sum
		}
	}

	var firstErr error
	for _, fr := range rep.Fragments {
		if errors.Is(fr.Err, ErrUploadAborted) {
			rep.Aborted++ // never tried: a job that had an attempt fail reports that error
		} else if fr.Err != nil && firstErr == nil {
			firstErr = fr.Err // there is one: only a job that failed for a reason sets aborted
		}
	}
	if firstErr != nil {
		// The write failed: reclaim every block that did get stored so
		// depots are not left holding bytes nothing references.
		rep.Cleaned += t.release(op, results)
		results = nil
	}
	rep.Duration = t.clock().Since(t0)
	return results, firstErr
}

// put stores the job's block on the depot at addr and returns its
// capabilities: payload bytes with one pipelined ALLOCATE+STORE batch, a
// copy source with ALLOCATE and then a depot-to-depot COPY. An allocation the bytes never
// reached is deleted again, best effort.
func (t *Tools) put(jb *placeJob, addr string, opts UploadOptions) (ibp.CapSet, error) {
	var set ibp.CapSet
	var err error
	if jb.src == nil {
		set, err = t.IBP.AllocateStore(addr, jb.size(), opts.Duration, opts.Reliability, jb.payload)
	} else if set, err = t.IBP.Allocate(addr, jb.size(), opts.Duration, opts.Reliability); err == nil {
		if _, err = t.IBP.Copy(jb.src.Read, 0, jb.src.Length, set.Write); err != nil {
			err = fmt.Errorf("copy from %s: %w", jb.src.Depot, err)
		}
	}
	if err != nil && !set.Manage.IsZero() {
		t.IBP.Delete(set.Manage)
	}
	return set, err
}
