package main

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/repaird"
)

// ---- repair_foreground ----

const (
	repairDepots   = 6
	repairFileSize = 1 << 20
	// cycleGap is how long the operator waits between one repair and the
	// next loss; the uploads of the window happen in these gaps, a
	// dozen in each. At 25 ms there were seven, a slice's upload_p90_ms
	// rested on a dozen samples and moved 14 % between seeds.
	cycleGap = 50 * time.Millisecond
)

// scriptedAvailability is the monitor's verdict the repair daemon scores
// from, scripted by the operator loop: a wiped depot reads 0 until its
// files have been through a repair pass, everything else 1. (stackmon
// would take probe rounds to say the same.)
type scriptedAvailability struct {
	mu   sync.Mutex
	down string
}

func (a *scriptedAvailability) Availability(addr string) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr == a.down {
		return 0, true
	}
	return 1, true
}

func (a *scriptedAvailability) set(addr string) {
	a.mu.Lock()
	a.down = addr
	a.mu.Unlock()
}

// repairCycle is one depot loss and its repair.
type repairCycle struct {
	start, end time.Time
	busy       time.Duration // inside Sweep + Drain
	bytes      int64         // re-replicated
	err        error
}

type repairBed struct {
	b      *bed
	src    *liveSource
	avail  *scriptedAvailability
	dir    *registry.Directory
	user   *registryUse
	victim int

	// cycle is held from a wipe until its repair is done, and by every
	// foreground upload: the two never write the directory at once. The
	// quorum directory resolves two writers racing for one version per
	// replica, so the loser's exNode can survive on a minority replica at
	// the winner's version number, and a later majority read may return
	// either. A user overwriting a file while the daemon republishes it
	// then reads back the old file or allocations already deleted. Until
	// the directory closes that race the benchmark keeps its uploads out
	// of repair cycles; downloads run straight through them.
	cycle sync.Mutex

	mu     sync.Mutex
	cycles []repairCycle
	totals counterSet // the cRepair* counters, summed over every daemon so far
}

// daemonObserver counts the repair daemon's own IBP traffic.
type daemonObserver struct{ r *repairBed }

func (o daemonObserver) Record(ev obs.Event) {
	o.r.mu.Lock()
	o.r.totals[cRepairVerbs]++
	if ev.Verb == ibp.OpLoad || ev.Verb == ibp.OpStore {
		o.r.totals[cRepairBytes] += ev.Bytes
	}
	o.r.mu.Unlock()
}

func setupRepairForeground(b *bed) error {
	b.fragSize = repairFileSize
	// Client 0 is the reader the workload is about: it downloads by name
	// straight through every repair. Client 1 also overwrites files, and
	// its uploads wait for the gap between two repair cycles (see
	// repairBed.cycle).
	b.mix = mix{objects: 32, minSize: repairFileSize, maxSize: repairFileSize, layouts: 1, rotations: repairDepots}
	b.downloadFracs = []float64{1, 0.5}
	if err := b.fleet.addDepots(repairDepots, backendMem, nil); err != nil {
		return err
	}
	if err := b.fleet.addRegistry(3, registry.DefaultShards); err != nil {
		return err
	}
	r := &repairBed{b: b, src: &liveSource{infos: b.fleet.infos()}, avail: &scriptedAvailability{}, user: &registryUse{}}
	qc, err := b.fleet.quorumClient(&r.user.dials)
	if err != nil {
		return err
	}
	r.user.client = qc
	r.dir = registry.NewDirectory(qc)
	infos := b.fleet.infos()
	b.makeTools = func(tr *tracer) *core.Tools {
		// Dial per verb, as xnd and maintaind do. A pooled client keeps
		// connections to a depot that has since restarted; STORE is not
		// retried on a stale one, so the upload would fail over to the
		// next depot in the list, where the file's other copy already
		// lives, and the next wipe of that depot would lose the file.
		c := dialingClient(observers(tr)...)
		b.closers = append(b.closers, func() { c.Close() })
		t := &core.Tools{IBP: c, Directory: r.dir, Loc: clientLoc}
		if tr != nil {
			t.Directory = tracedDirectory{r.dir, tr}
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
		if old.x != nil { // not the preload, which runs before any cycle
			r.cycle.Lock()
			defer r.cycle.Unlock()
		}
		var err error
		c.call("Upload", func() {
			o.x, err = withSpan(t, sc).Upload(o.name, b.pay.get(d.Variant, d.Size), core.UploadOptions{
				Replicas: 2, Depots: rotate(infos, d.Rotate),
			})
		})
		if err != nil {
			return o, err
		}
		// The repair daemon republishes names too, so the client's copy of
		// the exNode may be stale: read the current one, publish over it,
		// and retire what it named.
		replaced, prev := old.x, old.version
		if old.x != nil {
			c.call("LoadExNode", func() { replaced, prev, err = t.LoadExNode(o.name) })
			if err != nil {
				return o, err
			}
		}
		c.call("StoreExNode", func() { o.version, err = t.StoreExNode(o.name, o.x, prev) })
		if err == nil {
			retire(t, c.tr, replaced)
		}
		return o, err
	}
	b.background = r.operate
	b.counters = func(cs *counterSet) {
		r.user.counters(cs)
		r.mu.Lock()
		for i, v := range r.totals {
			cs[i] += v
		}
		r.mu.Unlock()
	}
	b.repair = r
	return nil
}

// operate is the operator loop: wipe the next depot round-robin, run the
// repair daemon until every file is back at two copies, repeat until told
// to stop. Its Tools discover depots through the live view with the wiped
// depot listed first, the placement an operator refilling a replaced depot
// wants. core.Maintain places a repair copy on the first healthy depot it
// is given and does not look where the surviving copy lives, so any other
// order would sooner or later put both copies of a file on one depot and
// the next wipe of that depot would lose it.
func (r *repairBed) operate(log *traceLog, stop <-chan struct{}) {
	var tr *tracer
	if log != nil {
		tr = newTracer(log)
	}
	client := dialingClient(observers(tr, daemonObserver{r})...)
	defer client.Close()
	var dials atomic.Int64
	qc, err := r.b.fleet.quorumClient(&dials)
	if err != nil {
		r.record(repairCycle{err: err})
		return
	}
	var dir interface {
		core.ExNodeDirectory
		repaird.DirectoryLister
	} = registry.NewDirectory(qc)
	if tr != nil {
		dir = tracedDirectory{registry.NewDirectory(qc), tr}
	}
	tools := &core.Tools{IBP: client, LBone: r.src, Directory: dir, Loc: clientLoc}
	daemon, err := repaird.New(repaird.Config{
		Tools: tools, Lister: dir, Workers: 4, Avail: r.avail,
		Maintain: core.MaintainOptions{MinCoverage: 2},
		// The daemon's warnings say why a repair pass failed; nothing else
		// does. Standard error reaches the terminal through runAll too.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	if err != nil {
		r.record(repairCycle{err: err})
		return
	}
	defer func() {
		c := daemon.Counters()
		r.mu.Lock()
		r.totals[cRepairScanned] += c.Scanned
		r.totals[cRepairPasses] += c.Passes
		r.totals[cRepairPassFailures] += c.PassFailures
		r.totals[cRepairConflicts] += c.Conflicts
		r.totals[cRepairReplicasAdded] += c.ReplicasAdded
		r.mu.Unlock()
	}()
	var busy int64 // inside Sweep + Drain, this cycle
	timed := func(name string, counter int, f func()) {
		id, prev := tr.begin(layerRepaird, name)
		t0 := time.Now()
		f()
		d := int64(time.Since(t0))
		tr.end(id, prev)
		busy += d
		r.mu.Lock()
		r.totals[counter] += d
		r.mu.Unlock()
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		cyc := repairCycle{}
		node := r.b.fleet.depots[r.victim]
		before := daemon.Counters()
		busy = 0

		// The wipe waits for an upload in flight (cycle) and for nothing
		// else: it lands in the middle of whatever the reader is doing,
		// which fails over to the file's other copy. Taking bed.faultMu
		// here would hold every reader up behind that upload.
		r.cycle.Lock()
		cyc.start = time.Now()
		r.avail.set(node.info.Addr)
		r.src.setFirst(node.info.Addr)
		cyc.err = r.b.fleet.wipe(r.victim)

		for round := 0; cyc.err == nil; round++ {
			failed := daemon.Counters().PassFailures
			timed("Sweep", cRepairSweepNS, func() { _, cyc.err = daemon.Sweep() })
			timed("Drain", cRepairDrainNS, daemon.Drain)
			// A failed pass leaves its file for the next round; the depot
			// stays marked down until a round goes through clean.
			if daemon.Counters().PassFailures == failed {
				break
			}
			if round == 4 {
				cyc.err = errors.New("repair passes kept failing for five rounds")
			}
		}
		r.avail.set("")
		if cyc.err == nil {
			timed("Sweep", cRepairSweepNS, func() { _, cyc.err = daemon.Sweep() })
			if n := daemon.Counters().AtRisk; cyc.err == nil && n != 0 {
				cyc.err = fmt.Errorf("%d files still below target after repair", n)
			}
		}
		r.cycle.Unlock()
		cyc.end = time.Now()
		cyc.busy = time.Duration(busy)
		cyc.bytes = (daemon.Counters().ReplicasAdded - before.ReplicasAdded) * repairFileSize
		r.record(cyc)
		r.victim = (r.victim + 1) % repairDepots
		if cyc.err != nil {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(cycleGap):
		}
	}
}

func (r *repairBed) record(c repairCycle) {
	r.mu.Lock()
	r.cycles = append(r.cycles, c)
	r.mu.Unlock()
}

// takeCycles hands over the cycles finished since the last call.
func (r *repairBed) takeCycles() []repairCycle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.cycles
	r.cycles = nil
	return out
}
