package core

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/lbone"
)

// setDown takes the named depot off (or back onto) the simulated network
// from now on, without closing the daemon.
func (e *env) setDown(name string, down bool) {
	if down {
		e.Kill(name, 1000*time.Hour)
	} else {
		e.SetAvail(name, nil)
	}
}

// depotsOf returns the sorted depot names holding the mappings that pass
// keep.
func depotsOf(x *exnode.ExNode, keep func(*exnode.Mapping) bool) []string {
	var out []string
	for _, m := range x.Mappings {
		if keep == nil || keep(m) {
			out = append(out, m.Depot)
		}
	}
	slices.Sort(out)
	return out
}

// TestUploadFailoverKeepsCopiesApart is bench/README Finding 1: replica 0
// fails over from a dead first choice onto the depot that is replica 1's
// first choice. Both copies used to end up there; a file with "two
// replicas" died with one depot.
func TestUploadFailoverKeepsCopiesApart(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			e := newEnv(t)
			for _, n := range []string{"A", "B", "C"} {
				e.addDepot(n, geo.UTK, nil)
			}
			e.Depots["A"].Close()
			tl := e.tools(geo.UTK, false)
			data := payload(16 << 10)

			x, err := tl.Upload("f", data, UploadOptions{
				Replicas: 2, Fragments: 1, Parallelism: workers, Depots: e.infosFor("A", "B", "C"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := depotsOf(x, nil); !slices.Equal(got, []string{"B", "C"}) {
				t.Fatalf("copies on %v, want one each on B and C", got)
			}

			// With nowhere else to go the upload must say so, not double up
			// on B — and must take back the copy B did accept.
			if _, err := tl.Trim(x, TrimOptions{Indices: []int{0, 1}, DeleteFromIBP: true}); err != nil {
				t.Fatal(err)
			}
			_, err = tl.Upload("g", data, UploadOptions{
				Replicas: 2, Fragments: 1, Parallelism: workers, Depots: e.infosFor("A", "B"),
			})
			if !errors.Is(err, ErrNoDisjointDepot) {
				t.Fatalf("two copies, one live depot: err = %v, want ErrNoDisjointDepot", err)
			}
			if n := e.Depots["B"].AllocationCount(); n != 0 {
				t.Fatalf("B holds %d allocations after the failed upload", n)
			}
		})
	}
}

// TestCodedUploadFailsOverPerBlock is bench/README Finding 2: one dead
// depot in the list used to fail the whole coded upload, because a block
// had one depot and nothing behind it.
func TestCodedUploadFailsOverPerBlock(t *testing.T) {
	e := newEnv(t)
	names := []string{"D0", "D1", "D2", "D3", "D4", "D5"}
	for _, n := range names {
		e.addDepot(n, geo.UTK, nil)
	}
	e.Depots["D2"].Close()
	tl := e.tools(geo.UTK, false)
	data := payload(30 << 10)
	opts := CodedOptions{DataBlocks: 3, ParityBlocks: 2, Checksum: true, Depots: e.infosFor(names...)}

	x, err := tl.UploadRS("c", data, opts)
	if err != nil {
		t.Fatalf("RS 3+2 over six depots, one closed: %v", err)
	}
	used := depotsOf(x, nil)
	if !slices.Equal(used, []string{"D0", "D1", "D3", "D4", "D5"}) {
		t.Fatalf("blocks on %v, want one on each of the five live depots", used)
	}
	// Five blocks on five depots: any two may go and three remain.
	for i := 0; i < len(used); i++ {
		for j := i + 1; j < len(used); j++ {
			e.setDown(used[i], true)
			e.setDown(used[j], true)
			got, _, err := tl.Download(x, DownloadOptions{})
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("download with %s and %s down: %v", used[i], used[j], err)
			}
			e.setDown(used[i], false)
			e.setDown(used[j], false)
		}
	}

	// Five depots for five blocks and one of them closed: no block may
	// double up, so the upload fails and leaves nothing behind.
	for _, m := range x.Mappings {
		if _, err := tl.IBP.Delete(m.Manage); err != nil {
			t.Fatal(err)
		}
	}
	opts.Depots = e.infosFor("D0", "D1", "D2", "D3", "D4")
	if _, err := tl.UploadRS("c", data, opts); !errors.Is(err, ErrNoDisjointDepot) {
		t.Fatalf("five blocks, four live depots: err = %v, want ErrNoDisjointDepot", err)
	}
	for _, n := range names {
		if c := e.Depots[n].AllocationCount(); n != "D2" && c != 0 {
			t.Errorf("depot %s holds %d leaked allocations", n, c)
		}
	}
}

// TestAugmentAvoidsSurvivorDepot: a file lost its copy on B, which stays
// down. The repair used to put the new copy on the first depot it was
// given — A, where the surviving copy already lives — and report coverage
// 2 for a file one depot failure from gone.
func TestAugmentAvoidsSurvivorDepot(t *testing.T) {
	for _, thirdParty := range []bool{false, true} {
		t.Run(fmt.Sprintf("thirdParty=%v", thirdParty), func(t *testing.T) {
			e := newEnv(t)
			for _, n := range []string{"A", "B", "C"} {
				e.addDepot(n, geo.UTK, nil)
			}
			tl := e.tools(geo.UTK, false)
			data := payload(16 << 10)
			x, err := tl.Upload("f", data, UploadOptions{
				Replicas: 2, Depots: e.infosFor("A", "B"), Checksum: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Depots["B"].Close()

			var out *exnode.ExNode
			if thirdParty {
				out, err = tl.Augment(x, AugmentOptions{ThirdParty: true, Depots: e.infosFor("A", "B", "C")})
			} else {
				var rep *MaintainReport
				out, rep, err = tl.Maintain(x, MaintainOptions{MinCoverage: 2, Depots: e.infosFor("A", "B", "C")})
				if err == nil && rep.AddedReplicas != 1 {
					t.Fatalf("added = %d, want 1", rep.AddedReplicas)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			added := depotsOf(out, func(m *exnode.Mapping) bool { return m.Replica == 2 })
			if !slices.Equal(added, []string{"C"}) {
				t.Fatalf("repair copy on %v, want C (A holds the survivor, B is down)", added)
			}
			e.Depots["A"].Close()
			got, _, err := tl.Download(out, DownloadOptions{})
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("download after losing the old survivor too: %v", err)
			}
		})
	}
}

// TestMixedStripesPlaceOnHealthyDepots: replicas striped 2 and 3 ways make a
// block of one overlap two blocks of the other, and the rotation spreads
// those two over both depots. The rule may fail a write only because depots
// failed, never on a healthy list, and not depending on worker order.
func TestMixedStripesPlaceOnHealthyDepots(t *testing.T) {
	data := payload(600)
	for _, workers := range []int{1, 4} {
		for _, names := range [][]string{{"A", "B"}, {"A", "B", "C"}} {
			t.Run(fmt.Sprintf("parallelism=%d/depots=%d", workers, len(names)), func(t *testing.T) {
				e := newEnv(t)
				for _, n := range names {
					e.addDepot(n, geo.UTK, nil)
				}
				tl := e.tools(geo.UTK, false)
				for round := 0; round < 10; round++ {
					x, err := tl.Upload("f", data, UploadOptions{
						Replicas: 2, FragmentsPerReplica: []int{2, 3}, Parallelism: workers, Depots: e.infosFor(names...),
					})
					if err != nil {
						t.Fatalf("round %d: healthy depots refused a placement: %v", round, err)
					}
					if got, _, err := tl.Download(x, DownloadOptions{}); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("round %d: download: %v", round, err)
					}
					// Three depots are enough for every block to avoid the (at
					// most two) blocks it overlaps; two are not, and say so.
					for i, a := range x.Mappings {
						for _, b := range x.Mappings[:i] {
							if len(names) == 3 && a.Depot == b.Depot && a.Overlaps(b.Offset, b.End()) {
								t.Fatalf("round %d: [%d,%d) and [%d,%d) share depot %s", round, a.Offset, a.End(), b.Offset, b.End(), a.Depot)
							}
						}
					}
				}
			})
		}
	}
}

// TestEveryWritePathSharesPlacerBehaviour drives each write entry point
// through the same three situations and expects the same outcome, because
// one loop serves them all. Every path places two 8 KiB blocks covering
// the whole file on the listed depots. The placer logs each refused attempt
// ("…; trying next depot"), which is how the test sees failover on the paths
// that expose no UploadReport.
func TestEveryWritePathSharesPlacerBehaviour(t *testing.T) {
	data := payload(8 << 10)
	// source uploads the file an augment starts from, on a depot of its own.
	source := func(t *testing.T, e *env, tl *Tools) *exnode.ExNode {
		x, err := tl.Upload("f", data, UploadOptions{Depots: e.infosFor("src"), Checksum: true})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	paths := []struct {
		name         string
		oneCandidate bool // no failover: a refusal is an abort
		// run performs the write; rep is filled by the paths that have a Report.
		run func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, rep *UploadReport) (*exnode.ExNode, error)
	}{
		{"Upload", false, func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, rep *UploadReport) (*exnode.ExNode, error) {
			return tl.Upload("f", data, UploadOptions{Replicas: 2, Depots: ds, Report: rep})
		}},
		// The layout names ds[1] before ds[0], so that something is stored
		// by the time the refusing depot is reached.
		{"UploadLayout", true, func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, rep *UploadReport) (*exnode.ExNode, error) {
			whole := func(d lbone.DepotInfo) []FragmentSpec {
				return []FragmentSpec{{Depot: d, Offset: 0, Length: int64(len(data))}}
			}
			return tl.UploadLayout("f", data, Layout{whole(ds[1]), whole(ds[0])}, UploadOptions{Report: rep})
		}},
		{"UploadXOR", false, func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, _ *UploadReport) (*exnode.ExNode, error) {
			return tl.UploadXOR("f", data, CodedOptions{DataBlocks: 1, Depots: ds})
		}},
		{"Augment", false, func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, _ *UploadReport) (*exnode.ExNode, error) {
			return tl.Augment(source(t, e, tl), AugmentOptions{Replicas: 2, Depots: ds})
		}},
		{"AugmentThirdParty", false, func(t *testing.T, e *env, tl *Tools, ds []lbone.DepotInfo, _ *UploadReport) (*exnode.ExNode, error) {
			return tl.Augment(source(t, e, tl), AugmentOptions{Replicas: 2, ThirdParty: true, Depots: ds})
		}},
	}
	newBed := func(t *testing.T) *env {
		e := newEnv(t)
		for _, n := range []string{"src", "a", "b", "c"} {
			e.addDepot(n, geo.UTK, nil)
		}
		return e
	}
	// logged captures tl's diagnostics from here on.
	logged := func(tl *Tools) *bytes.Buffer {
		var buf bytes.Buffer
		tl.Logger = slog.New(slog.NewTextHandler(&buf, nil))
		return &buf
	}
	placedOn := func(x *exnode.ExNode) []string {
		return depotsOf(x, func(m *exnode.Mapping) bool { return m.Depot != "src" })
	}
	// requireAborted is the outcome of a block that cannot be placed: an
	// error naming the refusing depot, nothing left on the depots, and the
	// refusal in the report's trail where there is a report.
	requireAborted := func(t *testing.T, e *env, rep *UploadReport, err error, refuser string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), " on "+refuser+": ") {
			t.Fatalf("err = %v, want a failure on %s", err, refuser)
		}
		for _, n := range []string{"a", "b", "c"} {
			if c := e.Depots[n].AllocationCount(); c != 0 {
				t.Errorf("depot %s holds %d allocations after the failed write", n, c)
			}
		}
		if rep.Fragments == nil {
			return // a path without a Report
		}
		if rep.OK() || !strings.Contains(rep.Timeline(), refuser+" (") || !strings.Contains(rep.Timeline(), "FAILED") {
			t.Fatalf("report should show the refusal by %s:\n%s", refuser, rep.Timeline())
		}
	}

	for _, p := range paths {
		t.Run(p.name+"/open circuit is demoted", func(t *testing.T) {
			e := newBed(t)
			sb := health.New(health.Config{FailureThreshold: 1, BaseBackoff: 10 * time.Minute, Clock: e.Clock, Seed: 1})
			tl := e.healthTools(geo.UTK, sb)
			sb.Report(e.Depots["a"].Addr(), health.Timeout, 2*time.Second)
			log, rep := logged(tl), &UploadReport{}
			x, err := p.run(t, e, tl, e.infosFor("a", "b", "c"), rep)
			if p.oneCandidate {
				requireAborted(t, e, rep, err, "a")
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := placedOn(x); !slices.Equal(got, []string{"b", "c"}) {
				t.Fatalf("blocks on %v, want b and c (a's circuit is open)", got)
			}
			if rep.Failovers != 0 || strings.Contains(log.String(), "trying next depot") {
				t.Fatalf("the open-circuit depot was tried:\n%s%s", log, rep.Timeline())
			}
		})
		t.Run(p.name+"/first candidate refuses", func(t *testing.T) {
			e := newBed(t)
			e.Depots["a"].Close()
			tl := e.tools(geo.UTK, false)
			log, rep := logged(tl), &UploadReport{}
			x, err := p.run(t, e, tl, e.infosFor("a", "b", "c"), rep)
			if p.oneCandidate {
				requireAborted(t, e, rep, err, "a")
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := placedOn(x); !slices.Equal(got, []string{"b", "c"}) {
				t.Fatalf("blocks on %v, want b and c (a is closed)", got)
			}
			if !strings.Contains(log.String(), " on a: ") || !strings.Contains(log.String(), "trying next depot") {
				t.Fatalf("the log should show a refusing and the block failing over:\n%s", log)
			}
			if rep.Fragments == nil {
				return
			}
			first := rep.Fragments[0].Trail
			if rep.Failovers == 0 || len(first) < 2 || first[0].Depot != "a" || first[0].OK() || !first[len(first)-1].OK() {
				t.Fatalf("block 0 should fail on a, then land elsewhere:\n%s", rep.Timeline())
			}
		})
		t.Run(p.name+"/unplaceable block aborts and reclaims", func(t *testing.T) {
			e := newBed(t)
			e.Depots["a"].Close()
			tl := e.tools(geo.UTK, false)
			rep := &UploadReport{}
			_, err := p.run(t, e, tl, e.infosFor("a", "b"), rep)
			requireAborted(t, e, rep, err, "a")
			if !p.oneCandidate && !errors.Is(err, ErrNoDisjointDepot) {
				t.Fatalf("err = %v, want ErrNoDisjointDepot (b already holds the other block)", err)
			}
			if rep.Fragments != nil && rep.Cleaned != 1 {
				t.Fatalf("cleaned = %d, want 1 (the block b took)\n%s", rep.Cleaned, rep.Timeline())
			}
		})
	}
}
