package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/slo"
	"repro/internal/transfer"
)

// Load shape shared by every workload: closed loop, two clients (the host
// has two cores, and a tool user waits for a transfer before starting the
// next), one extent in flight per operation.
const (
	defaultClients = 2
	tracedOps      = 400 // operations per fixed-count pass of the traced run
)

var clientLoc = geo.UTK.Loc

// setupBed starts the named workload's fleet and preloads its live set.
func setupBed(name string, seed int64, shrink int) (*bed, error) {
	b := &bed{name: name, seed: seed, nClients: defaultClients}
	var err error
	if b.fleet, err = newFleet(); err != nil {
		return nil, err
	}
	switch name {
	case wlBulkBare:
		err = setupBulkBare(b)
	case wlSmallNamed:
		err = setupSmallNamed(b)
	case wlDegradedFull:
		err = setupDegradedFull(b)
	case wlRepairForeground:
		err = setupRepairForeground(b)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err == nil {
		if b.mix.objects > 64 {
			b.mix.objects /= shrink
		}
		b.tools = b.makeTools(nil)
		b.pay = newPayloads(seed, b.mix.maxSize)
		err = b.preload()
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	return b, nil
}

// observers builds an ibp.WithObserver option from the non-nil sinks, or
// no option at all: a typed-nil tracer must not reach the client.
func observers(tr *tracer, rest ...obs.Observer) []ibp.Option {
	var all []obs.Observer
	if tr != nil {
		all = append(all, tr)
	}
	all = append(all, rest...)
	switch len(all) {
	case 0:
		return nil
	case 1:
		return []ibp.Option{ibp.WithObserver(all[0])}
	}
	return []ibp.Option{ibp.WithObserver(obs.Tee(all...))}
}

// ---- bulk_bare ----

func setupBulkBare(b *bed) error {
	const (
		depots   = 8
		fileSize = 4 << 20
	)
	b.mix = mix{downloadFrac: 0.7, objects: 8, minSize: fileSize, maxSize: fileSize, layouts: 1, rotations: depots}
	b.fifoReplace = true
	b.fragSize = fileSize / 4
	if err := b.fleet.addDepots(depots, backendMem, nil); err != nil {
		return err
	}
	infos := b.fleet.infos()
	b.makeTools = func(tr *tracer) *core.Tools {
		c := pooledClient(observers(tr)...)
		b.closers = append(b.closers, func() { c.Close() })
		return &core.Tools{IBP: c, Loc: clientLoc}
	}
	b.fetch = func(t *core.Tools, c *client, o *object, sc obs.SpanContext) (got []byte, rep *core.Report, err error) {
		c.call("Download", func() {
			got, rep, err = t.Download(o.x, core.DownloadOptions{Parallelism: 1, Span: sc})
		})
		return got, rep, err
	}
	b.store = func(t *core.Tools, c *client, old *object, d opDesc, sc obs.SpanContext) (object, error) {
		o := object{name: old.name, size: d.Size, variant: d.Variant}
		var err error
		c.call("Upload", func() {
			o.x, err = withSpan(t, sc).Upload(o.name, b.pay.get(d.Variant, d.Size), core.UploadOptions{
				Replicas: 2, Fragments: 4, Depots: rotate(infos, d.Rotate),
			})
		})
		if err == nil {
			retire(t, c.tr, old.x)
		}
		return o, err
	}
	return nil
}

// ---- small_named ----

// smallSites spreads the four depots over four sites so that "near" means
// something: an upload names a site and lands on the depot there first.
var smallSites = []geo.Site{geo.UTK, geo.UNC, geo.UIUC, geo.Harvard}

func setupSmallNamed(b *bed) error {
	b.mix = mix{downloadFrac: 0.5, objects: 2048, zipfS: 0.99, minSize: 1 << 10, maxSize: 16 << 10, layouts: 1, rotations: len(smallSites)}
	b.fragSize = 4 << 10
	// Reads follow Zipf, so a handful of names take most of them and the
	// bytes a download moves would swing with whatever sizes the seed
	// dealt those few. A name's size is therefore fixed by its index,
	// walking a log-uniform grid of 16 steps, which gives every stretch of
	// the popularity ranking the same size distribution; contents and the
	// operation sequence still come from the seed.
	b.shape = func(j int, _ bool, d *opDesc) {
		step := float64((j*5)%16) + 0.5
		d.Size = int(float64(b.mix.minSize) * math.Pow(float64(b.mix.maxSize)/float64(b.mix.minSize), step/16))
	}
	locs := make([]geo.Point, len(smallSites))
	for i, s := range smallSites {
		locs[i] = s.Loc
	}
	if err := b.fleet.addDepots(len(smallSites), backendPack, locs); err != nil {
		return err
	}
	if err := b.fleet.addRegistry(3, registry.DefaultShards); err != nil {
		return err
	}
	reg := &registryUse{}
	qc, err := b.fleet.quorumClient(&reg.dials)
	if err != nil {
		return err
	}
	reg.client = qc
	dir := registry.NewDirectory(qc)
	b.makeTools = func(tr *tracer) *core.Tools {
		c := pooledClient(observers(tr)...)
		b.closers = append(b.closers, func() { c.Close() })
		t := &core.Tools{IBP: c, LBone: qc, Directory: dir, Loc: clientLoc}
		if tr != nil {
			t.LBone = tracedSource{qc, tr}
			t.Directory = tracedDirectory{dir, tr}
		}
		return t
	}
	b.fetch = func(t *core.Tools, c *client, o *object, sc obs.SpanContext) (got []byte, rep *core.Report, err error) {
		c.call("DownloadByName", func() {
			got, rep, err = t.DownloadByName(o.name, core.DownloadOptions{Parallelism: 1, Span: sc})
		})
		return got, rep, err
	}
	b.store = func(t *core.Tools, c *client, old *object, d opDesc, sc obs.SpanContext) (object, error) {
		o := object{name: old.name, size: d.Size, variant: d.Variant}
		var err error
		c.call("Upload", func() {
			// Discovery through the quorum L-Bone, nearest the site the
			// generator named; the allocate and store ride one BATCH.
			o.x, err = withSpan(t, sc).Upload(o.name, b.pay.get(d.Variant, d.Size), core.UploadOptions{
				Replicas: 2, Fragments: 1, Near: &smallSites[d.Rotate].Loc,
			})
		})
		if err != nil {
			return o, err
		}
		c.call("StoreExNode", func() {
			o.version, err = t.StoreExNode(o.name, o.x, old.version)
		})
		if err == nil {
			retire(t, c.tr, old.x)
		}
		return o, err
	}
	b.counters = reg.counters
	return nil
}

// registryUse collects what the benchmark can see of a quorum client.
type registryUse struct {
	client *registry.QuorumClient
	dials  atomic.Int64
}

func (r *registryUse) counters(cs *counterSet) {
	st := r.client.Stats()
	cs[cRegDials] = r.dials.Load()
	cs[cRegOps] = st.Ops.Load()
	cs[cRegReplicaFails] = st.ReplicaFails.Load()
	cs[cRegRepairs] = st.Repairs.Load()
}

// ---- degraded_full ----

const (
	slowDelay  = 25 * time.Millisecond
	hedgeAfter = 10 * time.Millisecond
	// Depots are numbered nearest first. 0 is the slow one; 1 is closed
	// before the window and 2 at its midpoint. Preloaded RS files keep
	// their three data blocks on exactly these, so their downloads decode
	// with one erasure, then two.
	slowDepot   = 0
	deadDepotA  = 1
	deadDepotB  = 2
	layoutRS    = 4 // layouts 0..3 are 3 replicas x {1,2,4,1} fragments, 4 and 5 RS 3+2
	degradedKey = "stackbench degraded_full sealing key"
)

type degraded struct {
	b     *bed
	src   *liveSource
	hb    *health.Scoreboard
	stack []obs.Observer // the production observer stack, tracer excluded
	// engines are the transfer engines built so far (one untraced, one
	// traced); only one is in use at a time, so their counters add.
	engines []*transfer.Engine
	events  atomic.Int64 // events the stack saw
}

// countingObserver counts what the workload's own observers are fed.
type countingObserver struct {
	n     *atomic.Int64
	inner obs.Observer
}

func (c countingObserver) Record(e obs.Event) {
	c.n.Add(1)
	c.inner.Record(e)
}

func newObserverStack() []obs.Observer {
	return []obs.Observer{
		obs.NewCollector(0), obs.NewFlightRecorder(0), slo.ObserveIBP(slo.New(slo.Config{})),
	}
}

func setupDegradedFull(b *bed) error {
	const (
		depots   = 8
		fileSize = 1 << 20
	)
	// The workload's latencies fall into modes: an operation that meets the
	// slow depot hedges or waits; a coded upload is quicker than a
	// replicated one; a replicated upload costs by its fragment count. A
	// median or p90 that sits where two modes meet flips between them from
	// run to run (the first design, half coded and half slow, gave
	// upload_p50_ms a spread of 34 %). So the mix is built to put every
	// median in the middle of one broad mode and every p90 well inside the
	// slow one, and to hold it there whatever the seed.
	//
	// Rotate's even values put a replicated file on the slow depot; the
	// rest of the value rotates the other depots.
	b.mix = mix{downloadFrac: 0.8, objects: 24, minSize: fileSize, maxSize: fileSize, layouts: 6, rotations: 2 * (depots - 1)}
	// Uploads cycle through a client's last 6 files. The first 18 stay as
	// preloaded, before any fault, so that through the whole window reads
	// meet files with pieces on the depots that have died.
	b.fifoReplace, b.writeSlots = true, 6
	b.shape = func(j int, preload bool, d *opDesc) {
		if preload {
			// Three files of each layout (3 replicas x {1,2,4,1} fragments,
			// RS 3+2 twice): a third of the standing reads are coded. The
			// six one-fragment files are the ones on the slow depot, so
			// that a slow read is always one hedge long; a four-fragment
			// file there could hedge twice, and p90 sat on the boundary
			// between the two.
			d.Layout = j % 6
			d.Rotate = 2*(j%(depots-1)) | 1
			if d.Layout%3 == 0 {
				d.Rotate &^= 1
			}
			return
		}
		// Inside the window the six write slots take turns, and a slot's
		// layout goes with the slot: one is coded, one starts on the slow
		// depot, and the other four are replicated in two fragments on
		// fast depots, so the median upload is one of those. Drawing the
		// layout from the seed instead left the count of coded files
		// standing at the window's end to chance, and
		// stored_bytes_per_user_byte moved 2 % between runs of one seed.
		d.Layout = 1
		d.Rotate |= 1
		switch j % 6 {
		case 5:
			d.Layout = layoutRS
		case 0:
			d.Rotate &^= 1
		}
	}
	locs := make([]geo.Point, depots)
	for i := range locs {
		locs[i] = geo.Point{Lat: clientLoc.Lat + 0.5*float64(i+1), Lon: clientLoc.Lon}
	}
	// Not the file backend, though this is the workload closest to a
	// production depot: on this sandbox's ext4 its create/append/delete
	// churn swings every upload metric by 25-35 % from run to run (same
	// seed, same binary; the mem backend holds them within 2 %), which no
	// regression bound survives. The ladder prices the file backend alone.
	if err := b.fleet.addDepots(depots, backendMem, locs); err != nil {
		return err
	}
	dg := &degraded{b: b, src: &liveSource{infos: b.fleet.infos()}}
	dg.hb = health.New(health.Config{Seed: b.seed})
	dg.stack = newObserverStack()
	b.observerStack = obs.Tee(dg.stack...)
	b.fragSize = fileSize / 2
	sink := countingObserver{&dg.events, b.observerStack}
	// A fixed hedge threshold: the adaptive one tracks the primary's own
	// p95, which for a depot that is always 25 ms late settles at 25 ms
	// and never hedges it. 10 ms keeps the hedge path in every run.
	key := sealingKey()
	b.makeTools = func(tr *tracer) *core.Tools {
		dial := slowDialer{slowAddr: b.fleet.depots[slowDepot].info.Addr, delay: slowDelay}
		c := pooledClient(append(observers(tr, sink), ibp.WithDialer(dial), ibp.WithHealth(dg.hb))...)
		b.closers = append(b.closers, func() { c.Close() })
		eng := transfer.New(transfer.Config{Hedge: true, HedgeAfter: hedgeAfter, Health: dg.hb, Observer: sink})
		dg.engines = append(dg.engines, eng)
		return &core.Tools{IBP: c, LBone: dg.src, Health: dg.hb, Transfer: eng, Loc: clientLoc, Site: geo.UTK.Name}
	}
	b.fetch = func(t *core.Tools, c *client, o *object, sc obs.SpanContext) (got []byte, rep *core.Report, err error) {
		opts := core.DownloadOptions{Parallelism: 1, Span: sc}
		if o.layout != layoutRS {
			opts.DecryptionKey = key
		}
		c.call("Download", func() { got, rep, err = t.Download(o.x, opts) })
		return got, rep, err
	}
	b.store = func(t *core.Tools, c *client, old *object, d opDesc, sc obs.SpanContext) (object, error) {
		o := object{name: old.name, size: d.Size, variant: d.Variant, layout: min(d.Layout, layoutRS)}
		// Placement comes from the live L-Bone view, nearest first, so the
		// slow depot leads it and a depot that has died is no longer in
		// it. A coded file never goes on the slow depot: a data block
		// there has nothing to hedge against, and the wait for it would
		// form one more mode.
		live, _ := dg.src.Query(lbone.Requirements{Near: &clientLoc})
		targets := rotate(live[1:], d.Rotate/2)
		if o.layout != layoutRS && d.Rotate%2 == 0 {
			targets = append(live[:1:1], targets...)
		}
		data := b.pay.get(d.Variant, d.Size)
		var err error
		if o.layout == layoutRS {
			c.call("UploadRS", func() {
				o.x, err = withSpan(t, sc).UploadRS(o.name, data, core.CodedOptions{
					DataBlocks: 3, ParityBlocks: 2, Depots: targets, Checksum: true,
				})
			})
		} else {
			c.call("Upload", func() {
				o.x, err = withSpan(t, sc).Upload(o.name, data, core.UploadOptions{
					Replicas: 3, Fragments: 1 << (o.layout % 3), Depots: targets, Checksum: true, EncryptionKey: key,
				})
			})
		}
		if err == nil {
			retire(t, c.tr, old.x)
		}
		return o, err
	}
	b.startFault = func() { dg.kill(deadDepotA) }
	b.midFault = func() { dg.kill(deadDepotB) }
	b.counters = func(cs *counterSet) {
		cs[cObsEvents] = dg.events.Load()
		for _, e := range dg.engines {
			c := e.Counters()
			cs[cHedgesLaunched] += c.HedgesLaunched
			cs[cHedgeWins] += c.HedgeWins
			cs[cLimitAcquires] += c.LimitAcquires
			cs[cLimitWaits] += c.LimitWaits
			cs[cSingleflightLeaders] += c.SingleflightLeaders
			cs[cSingleflightShared] += c.SingleflightShared
		}
	}
	b.degraded = dg
	return nil
}

// kill closes depot i for good, between operations, and drops it from the
// L-Bone view.
func (dg *degraded) kill(i int) {
	dg.b.faultMu.Lock()
	defer dg.b.faultMu.Unlock()
	dg.src.remove(dg.b.fleet.depots[i].info.Addr)
	dg.b.fleet.kill(i)
}

func sealingKey() []byte {
	k := make([]byte, 32)
	copy(k, degradedKey)
	return k
}
