package repaird

// The repair-fleet churn soak (`make repair-smoke`): the paper's §3
// availability study turned into a durability experiment. A testbed of 21
// depots churns on renewal processes fit to the paper's measured per-host
// availabilities (62 %–100 %), a 3-replica quorum registry holds the
// namespace, stackmon probes feed the shared health scoreboard, and two
// shard-assigned maintenance daemons sweep, score, and repair for 48
// virtual hours. Allocations are leased for only 8h, so a fleet that
// stopped refreshing would lose every file six times over the horizon.
//
// Pass criteria: no file's persistent redundancy (non-expired copies,
// counting depots that are merely offline) ever drops below the
// durability target; the fleet demonstrably refreshed, repaired, and
// rate-limited through the per-depot limiter; and after the churn ends
// every file downloads back byte-identical. The run writes
// REPAIR_soak.json (to $REPAIR_SOAK_DIR or the test tmpdir) for CI to
// archive.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/registry"
	"repro/internal/slo"
	"repro/internal/stackmon"
	"repro/internal/testbed"
)

type soakReport struct {
	Depots       int     `json:"depots"`
	Files        int     `json:"files"`
	Rounds       int     `json:"rounds"`
	VirtualHours float64 `json:"virtual_hours"`

	Daemons []Counters `json:"daemons"`

	LimitAcquires int64 `json:"limit_acquires"`
	LimitWaits    int64 `json:"limit_waits"`

	// MaxBelowLive is the worst per-round count of files whose *live*
	// coverage dipped under the target — transient unavailability the
	// paper's failover tolerates, distinct from durability loss.
	MaxBelowLive int `json:"max_below_live_coverage"`
	// LossEvents counts files whose persistent coverage fell below the
	// target at any checkpoint. The soak fails unless this is zero.
	LossEvents int `json:"loss_events"`

	DurabilityGood int64 `json:"durability_sli_good"`
	DurabilityBad  int64 `json:"durability_sli_bad"`
}

func TestRepairFleetChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode (run via make repair-smoke)")
	}
	const (
		nDepots  = 21
		nReplica = 150 // two-replica files
		nCoded   = 50  // 3+2 Reed-Solomon files
		nFiles   = nReplica + nCoded
		rounds   = 48
		roundLen = time.Hour
		lease    = 8 * time.Hour
		target   = 2
	)
	// --- 21 data depots churning on the paper's availability schedule ---
	// Outage processes start one virtual hour in, so setup runs on a
	// healthy testbed; after that every depot follows its renewal process.
	specs := experiments.PaperDepots()
	fleet := make([]testbed.Spec, nDepots)
	for i := range fleet {
		spec := specs[i%len(specs)]
		fleet[i] = testbed.Spec{Name: fmt.Sprintf("%s-%02d", spec.Name, i), Site: spec.Site}
		if spec.Availability < 1 {
			fleet[i].Avail = faultnet.NewRenewalProcess(testbed.Start.Add(time.Hour),
				faultnet.ForAvailability(spec.Availability, spec.MeanDown),
				spec.MeanDown, int64(i)*101+7)
		}
	}
	tb, err := testbed.New(4242, fleet...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	clk, model := tb.Clock, tb.Model
	model.SetDefaultLink(faultnet.Link{RTT: 20 * time.Millisecond, Mbps: 50})
	model.SetLocalLink(faultnet.Link{RTT: time.Millisecond, Mbps: 100})
	var infos []lbone.DepotInfo
	var depotAddrs []string
	for _, f := range fleet {
		infos = append(infos, tb.Infos[f.Name])
		depotAddrs = append(depotAddrs, tb.Infos[f.Name].Addr)
	}

	// --- quorum registry: three always-up replicas, four shards ---
	// (registry-replica churn is PR 7's acceptance experiment; this soak
	// isolates data-depot churn).
	regAddrs := make([]string, 3)
	reps := make([]*registry.Replica, 3)
	for i := range regAddrs {
		srv, rep, err := registry.Serve("127.0.0.1:0", registry.Config{
			Members: []string{"placeholder:0"}, Seq: 1, Shards: 4, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		regAddrs[i], reps[i] = srv.Addr(), rep
		model.AddDepot(srv.Addr(), faultnet.DepotState{Site: geo.UTK.Name})
	}
	view := registry.View{Seq: 2, Members: regAddrs, Shards: 4}
	for _, rep := range reps {
		if err := rep.Reconfigure(view); err != nil {
			t.Fatal(err)
		}
	}
	qc := registry.NewQuorumClient(strings.Join(regAddrs, ","),
		registry.WithDialer(model.DialerFrom(geo.UTK.Name)),
		registry.WithClock(clk),
		registry.WithTimeouts(2*time.Second, 30*time.Second),
	)
	dir := registry.NewDirectory(qc)

	// --- the shared signal plane: health scoreboard, stackmon, NWS ---
	hb := health.New(health.Config{FailureThreshold: 3, Clock: clk, Seed: 1})
	ibpClient := ibp.NewClient(
		ibp.WithDialer(model.DialerFrom(geo.UTK.Name)),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(2*time.Second),
		ibp.WithHealth(hb),
	)
	mon, err := stackmon.New(stackmon.Config{
		Client: ibpClient, Depots: depotAddrs, Clock: clk, Interval: 15 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	tools := &core.Tools{
		IBP:       ibpClient,
		LBone:     qc,
		Directory: dir,
		NWS:       nws.NewService(clk),
		Health:    hb,
		Clock:     clk,
		Site:      geo.UTK.Name,
		Loc:       geo.UTK.Loc,
	}

	// --- the namespace: 150 two-replica files + 50 RS 3+2 files ---
	payloads := map[string][]byte{}
	mkPayload := func(i, size int) []byte {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte((i*131 + j*7) % 251)
		}
		return b
	}
	rotate := func(i int) []lbone.DepotInfo {
		k := i % len(infos)
		return append(append([]lbone.DepotInfo{}, infos[k:]...), infos[:k]...)
	}
	for i := 0; i < nReplica; i++ {
		name := fmt.Sprintf("soak/rep-%03d", i)
		data := mkPayload(i, 24<<10)
		x, err := tools.Upload(name, data, core.UploadOptions{
			Replicas: 2, Depots: rotate(i), Duration: lease,
		})
		if err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
		if _, err := tools.StoreExNode(name, x, 0); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		payloads[name] = data
	}
	for i := 0; i < nCoded; i++ {
		name := fmt.Sprintf("soak/rs-%03d", i)
		data := mkPayload(1000+i, 30<<10)
		x, err := tools.UploadRS(name, data, core.CodedOptions{
			DataBlocks: 3, ParityBlocks: 2, Depots: rotate(i * 3), Duration: lease,
		})
		if err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
		if _, err := tools.StoreExNode(name, x, 0); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		payloads[name] = data
	}

	// --- two shard-assigned daemons partitioning the namespace ---
	eng := slo.New(slo.Config{Clock: clk})
	daemons := make([]*Daemon, 2)
	for i := range daemons {
		d, err := New(Config{
			Tools:      tools,
			Lister:     dir,
			ShardIndex: i,
			ShardCount: len(daemons),
			Workers:    4,
			// One concurrent repair pass per depot: user traffic keeps
			// the other transfer slots.
			MaxRepairPerDepot: 1,
			Avail:             mon,
			SLO:               eng,
			Maintain: core.MaintainOptions{
				MinCoverage:  target,
				RefreshBelow: 4 * time.Hour,
				RefreshTo:    lease,
				Depots:       infos,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
	}

	// --- 48 virtual hours of churn ---
	alwaysThere := func(string) bool { return true }
	report := soakReport{Depots: nDepots, Files: nFiles, Rounds: rounds}
	for round := 1; round <= rounds; round++ {
		// Four stackmon sweeps per round keep the availability series and
		// the health circuits current on the paper's 15m probe cadence.
		for q := 0; q < 4; q++ {
			clk.Advance(roundLen / 4)
			mon.Sweep()
		}
		for _, d := range daemons {
			if _, err := d.Sweep(); err != nil {
				t.Fatalf("round %d: sweep: %v", round, err)
			}
			d.Drain()
		}

		// Durability checkpoint against the directory's truth. Persistent
		// coverage counts every non-expired copy — bytes on an offline
		// depot are unavailable, not lost — so a drop below target here
		// means the fleet let redundancy decay: the soak fails.
		now := clk.Now()
		belowLive := 0
		for name := range payloads {
			x, _, err := tools.LoadExNode(name)
			if err != nil {
				t.Fatalf("round %d: load %s: %v", round, name, err)
			}
			persistent := EffectiveCoverage(x, now, alwaysThere)
			if persistent < target {
				report.LossEvents++
				t.Errorf("round %d: %s persistent coverage %d below target %d",
					round, name, persistent, target)
			}
			if EffectiveCoverage(x, now, func(addr string) bool { return model.DepotUp(addr) }) < target {
				belowLive++
			}
		}
		if belowLive > report.MaxBelowLive {
			report.MaxBelowLive = belowLive
		}
		if t.Failed() {
			t.Fatalf("durability lost at round %d", round)
		}
	}

	// --- end of churn: heal the testbed, run one last repair round, and
	// read every file back ---
	for _, f := range fleet {
		tb.SetAvail(f.Name, nil)
	}
	clk.Advance(30 * time.Minute)
	mon.Sweep() // successful probes close any open circuits
	mon.Sweep()
	for _, d := range daemons {
		if _, err := d.Sweep(); err != nil {
			t.Fatal(err)
		}
		d.Drain()
	}
	for name, want := range payloads {
		got, _, err := tools.DownloadByName(name, core.DownloadOptions{})
		if err != nil {
			t.Fatalf("final download %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final download %s: content mismatch", name)
		}
	}

	// --- the fleet did its job through the *signals*, not by luck ---
	var all Counters
	for _, d := range daemons {
		c := d.Counters()
		report.Daemons = append(report.Daemons, c)
		all.Scanned += c.Scanned
		all.Queued += c.Queued
		all.Passes += c.Passes
		all.Refreshed += c.Refreshed
		all.ReplicasAdded += c.ReplicasAdded
		lc := d.Limiter().Counters()
		report.LimitAcquires += lc.LimitAcquires
		report.LimitWaits += lc.LimitWaits
		if c.Scanned == 0 || c.Skipped == 0 {
			t.Errorf("daemon scanned=%d skipped=%d: sharding not exercised", c.Scanned, c.Skipped)
		}
	}
	if all.Refreshed == 0 {
		t.Error("no allocation was ever refreshed — leases survived 48h by accident")
	}
	if all.ReplicasAdded == 0 {
		t.Error("no repair replica was ever added across the churn")
	}
	if report.LimitAcquires == 0 {
		t.Error("repair passes bypassed the per-depot limiter")
	}
	if report.LimitWaits == 0 {
		t.Error("per-depot limiter never throttled: cap not exercised")
	}

	// The durability SLI saw the whole soak.
	st := eng.Snapshot()
	for _, o := range st.Objectives {
		if o.Name != "durability" {
			continue
		}
		for _, k := range o.Keys {
			report.DurabilityGood += k.Good
			report.DurabilityBad += k.Bad
		}
	}
	if report.DurabilityGood == 0 {
		t.Error("durability SLI recorded no samples")
	}

	report.VirtualHours = clk.Now().Sub(testbed.Start).Hours()
	outDir := os.Getenv("REPAIR_SOAK_DIR")
	if outDir == "" {
		outDir = t.TempDir()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(outDir, "REPAIR_soak.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak report: %s", path)
	t.Logf("fleet totals: scanned=%d queued=%d passes=%d refreshed=%d replicas_added=%d limiter(acquires=%d waits=%d) max_below_live=%d",
		all.Scanned, all.Queued, all.Passes, all.Refreshed, all.ReplicasAdded,
		report.LimitAcquires, report.LimitWaits, report.MaxBelowLive)
}
