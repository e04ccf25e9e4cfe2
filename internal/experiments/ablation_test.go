package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/testbed"
)

// The design choices the paper calls out (DESIGN §5), each as a number with
// a band. Every row runs a fixed count of rounds on the virtual clock, so
// its value is a property of the seed and not of how fast the host is.

// flakyFleet starts one depot per entry of sites, each independently up
// the given fraction of the time (outages of ten minutes on average, none
// in the first OutageGrace so uploads land), and returns the testbed with
// the depots' registry entries in order.
func flakyFleet(t *testing.T, seed int64, avail float64, sites ...geo.Site) (*Testbed, []lbone.DepotInfo) {
	t.Helper()
	specs := make([]DepotSpec, len(sites))
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = fmt.Sprintf("D%d", i)
		specs[i] = DepotSpec{Name: names[i], Site: s, Availability: avail, MeanDown: 10 * time.Minute}
	}
	tb, err := NewTestbed(TestbedConfig{Seed: seed, Depots: specs, StableLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	infos, err := tb.InfosFor(names...)
	if err != nil {
		t.Fatal(err)
	}
	return tb, infos
}

func sitesOf(n int, s geo.Site) []geo.Site {
	out := make([]geo.Site, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// retrieved runs get once per round and returns the percentage that
// succeeded. Rounds fall at fixed virtual times from the end of the
// outage-free grace period, step apart whatever each download cost.
func retrieved(tb *Testbed, rounds int, step time.Duration, get func() error) float64 {
	start := testbed.Start.Add(OutageGrace)
	ok := 0
	for i := 0; i < rounds; i++ {
		tb.advanceTo(start.Add(time.Duration(i) * step))
		if get() == nil {
			ok++
		}
	}
	return 100 * float64(ok) / float64(rounds)
}

const ablationRounds = 200

// replicaSweep: A-replicas, "how much replication is enough" (§3.3). Ten
// depots each up 70 % of the time, the file in two fragments per copy.
func replicaSweep(replicas int) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		tb, infos := flakyFleet(t, 9, 0.7, sitesOf(10, geo.UTK)...)
		tools := tb.Tools(geo.UTK, false)
		x, err := tools.Upload("sweep", experimentPayload(100<<10), core.UploadOptions{
			Replicas: replicas, Fragments: 2, Depots: infos,
		})
		if err != nil {
			t.Fatal(err)
		}
		return retrieved(tb, ablationRounds, 5*time.Minute, func() error {
			_, _, err := tools.Download(x, core.DownloadOptions{})
			return err
		})
	}
}

// granularity: A-granularity, the paper's per-extent failover (§2.3)
// against fetching one whole copy at a time. Eight depots each up 80 % of
// the time, three copies of four fragments: a file survives when some copy
// of every extent is up, even if no single copy is up in full.
func granularity(whole bool) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		tb, infos := flakyFleet(t, 21, 0.8, sitesOf(8, geo.UTK)...)
		tools := tb.Tools(geo.UTK, false)
		x, err := tools.Upload("gran", experimentPayload(64<<10), core.UploadOptions{
			Replicas: 3, Fragments: 4, Depots: infos,
		})
		if err != nil {
			t.Fatal(err)
		}
		return retrieved(tb, ablationRounds, 7*time.Minute, func() error {
			if whole {
				return downloadWholeReplica(tools, x)
			}
			_, _, err := tools.Download(x, core.DownloadOptions{})
			return err
		})
	}
}

// downloadWholeReplica is the baseline per-extent failover answers: fetch
// one entire copy at a time, failing over copy by copy. Each copy is a
// plain Download of the exNode cut down to that copy's mappings, so any
// dead fragment fails the whole copy.
func downloadWholeReplica(tools *core.Tools, x *exnode.ExNode) error {
	err := exnode.ErrNoCoverage
	seen := map[int]bool{}
	for _, m := range x.Mappings {
		if !m.IsReplica() || seen[m.Replica] {
			continue
		}
		seen[m.Replica] = true
		one := x.Clone()
		one.Mappings = x.ReplicaMappings(m.Replica)
		if _, _, err = tools.Download(one, core.DownloadOptions{}); err == nil {
			return nil
		}
	}
	return err
}

// placement: A-placement, rotate against site-diverse placement under
// whole-site outages (§2.3/§4). Two sites of two depots; UTK is down the
// first hour of every two. The depots are listed site by site, so plain
// rotation puts both copies of the first extent on UTK and the outage
// takes them together; site-diverse placement splits them.
func placement(policy core.Placement) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		tb, infos := flakyFleet(t, 31, 1, geo.UTK, geo.UTK, geo.UCSD, geo.UCSD)
		var down []faultnet.Window
		for h := 0; h < 200; h += 2 {
			from := testbed.Start.Add(OutageGrace + time.Duration(h)*time.Hour)
			down = append(down, faultnet.Window{From: from, To: from.Add(time.Hour)})
		}
		for _, info := range infos[:2] {
			tb.SetAvail(info.Name, faultnet.Windows{Down: down})
		}
		tools := tb.Tools(geo.UTK, false)
		x, err := tools.Upload("plc", experimentPayload(32<<10), core.UploadOptions{
			Replicas: 2, Fragments: 2, Depots: infos, Placement: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		// 41 minutes is coprime to the two-hour cycle: the rounds sample
		// both halves of it evenly.
		return retrieved(tb, ablationRounds, 41*time.Minute, func() error {
			_, _, err := tools.Download(x, core.DownloadOptions{})
			return err
		})
	}
}

// storedPerUserByte: A-erasure, replication against coding (§4). It stores
// 1 MiB on six healthy depots, returns what the depots committed per user
// byte, and requires the file to come back with any two of the six gone —
// the fault coverage the two layouts are being compared at.
func storedPerUserByte(upload func(*core.Tools, []byte, []lbone.DepotInfo) (*exnode.ExNode, error)) func(*testing.T) float64 {
	return func(t *testing.T) float64 {
		tb, infos := flakyFleet(t, 5, 1, sitesOf(6, geo.UTK)...)
		tools := tb.Tools(geo.UTK, false)
		data := experimentPayload(1 << 20)
		x, err := upload(tools, data, infos)
		if err != nil {
			t.Fatal(err)
		}
		var stored int64
		for _, d := range tb.Depots {
			stored += d.UsedBytes()
		}
		gone := faultnet.Windows{Down: []faultnet.Window{{From: testbed.Start, To: testbed.Start.Add(24 * time.Hour)}}}
		for i := range infos {
			for j := i + 1; j < len(infos); j++ {
				for _, k := range []int{i, j} {
					tb.SetAvail(infos[k].Name, gone)
				}
				got, _, err := tools.Download(x, core.DownloadOptions{})
				if err != nil {
					t.Errorf("without %s and %s: %v", infos[i].Name, infos[j].Name, err)
				} else if !bytes.Equal(got, data) {
					t.Errorf("without %s and %s: wrong bytes", infos[i].Name, infos[j].Name)
				}
				for _, k := range []int{i, j} {
					tb.SetAvail(infos[k].Name, nil)
				}
			}
		}
		return float64(stored) / float64(len(data))
	}
}

// TestAblationShapes pins the quantified claims of DESIGN §5 and
// EXPERIMENTS "Pinned shapes": the bands here are the numbers those
// documents quote. Each row is measured twice from fresh fleets and the two
// values must be identical, which is what makes a band on one seed a
// meaningful assertion.
func TestAblationShapes(t *testing.T) {
	rows := []struct {
		id, variant, unit string
		lo, hi            float64
		measure           func(*testing.T) float64
	}{
		{"A-replicas", "1 copy", "% retrieved", 46, 66, replicaSweep(1)},
		{"A-replicas", "2 copies", "% retrieved", 82, 96, replicaSweep(2)},
		{"A-replicas", "3 copies", "% retrieved", 93, 100, replicaSweep(3)},
		{"A-replicas", "4 copies", "% retrieved", 97, 100, replicaSweep(4)},
		{"A-replicas", "5 copies", "% retrieved", 99, 100, replicaSweep(5)},
		{"A-granularity", "extent failover", "% retrieved", 93, 100, granularity(false)},
		{"A-granularity", "whole replica", "% retrieved", 50, 70, granularity(true)},
		{"A-placement", "rotate", "% retrieved", 42, 58, placement(core.PlacementRotate)},
		{"A-placement", "site-diverse", "% retrieved", 100, 100, placement(core.PlacementSiteDiverse)},
		{"A-erasure", "3 copies", "stored/user byte", 2.99, 3.01,
			storedPerUserByte(func(tl *core.Tools, data []byte, depots []lbone.DepotInfo) (*exnode.ExNode, error) {
				return tl.Upload("r", data, core.UploadOptions{Replicas: 3, Depots: depots})
			})},
		{"A-erasure", "RS 4+2", "stored/user byte", 1.49, 1.51,
			storedPerUserByte(func(tl *core.Tools, data []byte, depots []lbone.DepotInfo) (*exnode.ExNode, error) {
				return tl.UploadRS("c", data, core.CodedOptions{DataBlocks: 4, ParityBlocks: 2, Depots: depots})
			})},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "\n  %-14s %-16s %8s  %-17s %s\n", "ID", "variant", "value", "unit", "band")
	for _, r := range rows {
		got := r.measure(t)
		if again := r.measure(t); again != got {
			t.Errorf("%s %s: %v then %v from the same seed: not deterministic", r.id, r.variant, got, again)
		}
		if got < r.lo || got > r.hi {
			t.Errorf("%s %s: %.2f %s, outside the pinned band [%v, %v]", r.id, r.variant, got, r.unit, r.lo, r.hi)
		}
		fmt.Fprintf(&table, "  %-14s %-16s %8.2f  %-17s [%v, %v]\n", r.id, r.variant, got, r.unit, r.lo, r.hi)
	}
	t.Log(table.String())
}
