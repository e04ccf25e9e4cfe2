package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/depot"
	"repro/internal/erasure"
	"repro/internal/exnode"
	"repro/internal/health"
	"repro/internal/integrity"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
	"repro/internal/sealing"
	"repro/internal/wire"
)

// The ladder prices each leaf package alone, by calling its public API
// directly at the sizes the workload uses. These are the numbers a layer
// optimisation moves first; the workload's end-to-end metrics say whether
// it mattered.

// rung times f for as long as each ladder rung gets and returns the mean
// nanoseconds per call.
type rung time.Duration

func (r rung) time(f func()) float64 {
	f() // first call pays for lazy set-up
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < time.Duration(r) {
		f()
		n++
	}
	return float64(time.Since(t0)) / float64(n)
}

// mbPerS turns nanoseconds per call moving size bytes into MB/s.
func mbPerS(size int, ns float64) float64 { return float64(size) / 1e6 / (ns / 1e9) }

// ladder measures every rung for bed b and adds them to m.
func ladder(b *bed, each time.Duration, m map[string]float64) error {
	r := rung(each)
	frag := b.pay.get(0, b.fragSize)
	file := b.pay.get(1, b.mix.maxSize)

	// The denominator of core.download_frac_of_ceiling: a short copy rides
	// on whatever else the host does in that instant (it read 3290 and
	// 4736 MB/s in two runs of one commit), so it is the median of rounds.
	var rounds []float64
	for i := 0; i < ceilingRounds; i++ {
		rounds = append(rounds, loopbackCeiling(ceilingRungs*each))
	}
	m["ceiling.loopback_mb_s"] = median(rounds)
	if err := wireRungs(r, frag, m); err != nil {
		return err
	}
	if err := backendRungs(b, r, frag, m); err != nil {
		return err
	}

	rs, err := erasure.NewRS(3, 2)
	if err != nil {
		return err
	}
	data := erasure.Split(file, 3)
	var parity [][]byte
	m["erasure.encode_mb_s"] = mbPerS(len(file), r.time(func() { parity, _ = rs.Encode(data) }))
	m["erasure.decode_mb_s"] = mbPerS(len(file), r.time(func() {
		// Two erasures, both data blocks: the worst case RS 3+2 survives.
		rs.Decode([][]byte{nil, nil, data[2], parity[0], parity[1]}) //nolint:errcheck // timed call
	}))

	m["integrity.sum_mb_s"] = mbPerS(len(frag), r.time(func() { integrity.Sum(frag) }))

	key := sealingKey()
	iv, err := sealing.NewIV()
	if err != nil {
		return err
	}
	var sealed []byte
	m["sealing.seal_mb_s"] = mbPerS(len(file), r.time(func() { sealed, _ = sealing.Seal(key, iv, file) }))
	m["sealing.unseal_mb_s"] = mbPerS(len(file), r.time(func() {
		sealing.UnsealAt(key, iv, sealed, 0) //nolint:errcheck // timed call
	}))

	// exNode XML, on the workload's own exNodes.
	xs := b.clients[0].objects
	var docs [][]byte
	i := 0
	m["exnode.marshal_us"] = r.time(func() {
		doc, _ := exnode.Marshal(xs[i%len(xs)].x)
		if i < len(xs) {
			docs = append(docs, doc)
		}
		i++
	}) / 1e3
	i = 0
	m["exnode.unmarshal_us"] = r.time(func() {
		exnode.Unmarshal(docs[i%len(docs)]) //nolint:errcheck // timed call
		i++
	}) / 1e3

	sb := health.New(health.Config{Seed: b.seed})
	addrs := b.fleet.infos()
	i = 0
	m["health.report_ns"] = r.time(func() {
		sb.Report(addrs[i%len(addrs)].Addr, health.Success, time.Millisecond)
		i++
	})
	return nil
}

// The ceiling is timed for ceilingRounds rounds of ceilingRungs rungs
// each: about a second in all at the default rung.
const (
	ceilingRounds = 5
	ceilingRungs  = 2
)

// loopbackCeiling is what the host's loopback carries with nothing of the
// stack in the way: two TCP connections, 1 MiB writes, readers discarding.
func loopbackCeiling(d time.Duration) float64 {
	const conns = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total int64
	deadline := time.Now().Add(d)
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			n, _ := io.Copy(io.Discard, c)
			mu.Lock()
			total += n
			mu.Unlock()
		}()
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 1<<20)
			for time.Now().Before(deadline) {
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(total) / 1e6 / time.Since(t0).Seconds()
}

// wireRungs times the framing layer over an in-memory pipe: a blob of the
// workload's fragment size, and the smallest request/response exchange.
func wireRungs(r rung, frag []byte, m map[string]float64) error {
	a, z := net.Pipe()
	client, server := wire.NewConn(a), wire.NewConn(z)
	defer client.Close()
	defer server.Close()

	// The peer goroutine answers whatever the timed side sends, until the
	// pipe closes.
	errc := make(chan error, 1) // one send, from the one peer goroutine
	into := make([]byte, len(frag))
	go func() {
		defer server.Close() // a timed side blocked on the pipe must not hang
		for {
			toks, err := server.ReadLine()
			if err != nil {
				errc <- nil
				return
			}
			switch toks[0] {
			case "BLOB":
				err = server.ReadBlobInto(into)
				if err == nil {
					err = server.WriteOK()
				}
			default:
				err = server.WriteOK("1")
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	var loopErr error
	exchange := func(f func() error) func() {
		return func() {
			if err := f(); err != nil && loopErr == nil {
				loopErr = err
			}
		}
	}
	blobNS := r.time(exchange(func() error {
		if err := client.WriteLine("BLOB"); err != nil {
			return err
		}
		if err := client.WriteBlob(frag); err != nil {
			return err
		}
		_, err := client.ReadStatus()
		return err
	}))
	m["wire.blob_mb_s"] = mbPerS(len(frag), blobNS)

	frame := exchange(func() error {
		if err := client.WriteLine("PROBE", "cap"); err != nil {
			return err
		}
		_, err := client.ReadStatus()
		return err
	})
	m["wire.frame_ns_per_op"] = r.time(frame)
	var before, after runtime.MemStats
	const frames = 2000
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		frame()
	}
	runtime.ReadMemStats(&after)
	m["wire.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / frames
	client.Close()
	if err := <-errc; err != nil {
		return fmt.Errorf("wire rung peer: %w", err)
	}
	if loopErr != nil {
		return fmt.Errorf("wire rung: %w", loopErr)
	}
	return nil
}

// backendRungs times each storage backend without a depot in front of it,
// at the workload's fragment size: create + append one fragment, then read
// it back.
func backendRungs(b *bed, r rung, frag []byte, m map[string]float64) error {
	for _, kind := range []string{backendMem, backendPack, backendFile} {
		node := &depotNode{kind: kind, dir: filepath.Join(b.fleet.tmp, "ladder-"+kind)}
		if err := os.MkdirAll(node.dir, 0o755); err != nil {
			return err
		}
		be, err := b.fleet.newBackend(node)
		if err != nil {
			return err
		}
		storeNS, loadNS, err := backendRung(be, r, frag)
		if node.pack != nil {
			node.pack.Close()
		}
		if err != nil {
			return fmt.Errorf("%s backend rung: %w", kind, err)
		}
		m["depot.backend_"+kind+"_store_mb_s"] = mbPerS(len(frag), storeNS)
		m["depot.backend_"+kind+"_load_mb_s"] = mbPerS(len(frag), loadNS)
	}
	return nil
}

func backendRung(be depot.Backend, r rung, frag []byte) (storeNS, loadNS float64, err error) {
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	// A bounded key ring keeps the rung's footprint flat however many
	// iterations fit in a rung.
	const ring = 32
	handles := make([]depot.Handle, ring)
	defer func() {
		for _, h := range handles {
			if h != nil {
				h.Close()
			}
		}
	}()
	i := 0
	storeNS = r.time(func() {
		k := i % ring
		key := fmt.Sprintf("ladder-%d", k)
		if handles[k] != nil {
			handles[k].Close()
			handles[k] = nil
			note(be.Remove(key))
		}
		h, e := be.Create(key, int64(len(frag)))
		if e != nil {
			note(e)
			return
		}
		_, e = h.Append(frag)
		note(e)
		handles[k] = h
		i++
	})
	if err != nil {
		return 0, 0, err
	}
	into := make([]byte, len(frag))
	i = 0
	loadNS = r.time(func() {
		// The store rung filled at least slot 0.
		h := handles[i%ring]
		if h == nil {
			h = handles[0]
		}
		note(h.ReadAt(into, 0))
		i++
	})
	return storeNS, loadNS, err
}

// obsReplay prices the workload's own observer stack: the events captured
// by the traced run, fed through it again. Workloads with no observers
// wired price nothing.
func obsReplay(each time.Duration, stack obs.Observer, events []obs.Event) float64 {
	if stack == nil || len(events) == 0 {
		return 0
	}
	i := 0
	return rung(each).time(func() {
		stack.Record(events[i%len(events)])
		i++
	})
}

// fleetSweep times obsd's aggregator scraping the fleet's depots: each
// live depot's ObsMux is served on loopback HTTP, listed as a static
// member, and swept three times. It returns the median milliseconds per
// member.
func fleetSweep(f *fleet) (float64, error) {
	var members []lbone.ControlInfo
	var servers []*http.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for _, n := range f.depots {
		if n.closed {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		srv := &http.Server{Handler: n.d.ObsMux()}
		servers = append(servers, srv)
		go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
		members = append(members, lbone.ControlInfo{Addr: ln.Addr().String(), Component: "ibp-depot", Name: n.info.Name})
	}
	agg := obsfleet.New(obsfleet.Config{Static: members, ScrapeTimeout: 2 * time.Second})
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		agg.Sweep()
		ms = append(ms, time.Since(t0).Seconds()*1e3/float64(len(members)))
	}
	return median(ms), nil
}
