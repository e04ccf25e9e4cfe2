// Package clitest builds the real binaries and drives them end-to-end over
// loopback TCP — the closest thing to a user following the README.
package clitest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/slo"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nss-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir,
		"repro/cmd/ibp-depot", "repro/cmd/lbone-server", "repro/cmd/xnd", "repro/cmd/nws-server",
		"repro/cmd/maintaind", "repro/cmd/obsd", "repro/cmd/stackmon")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building binaries:", err)
		os.Exit(1)
	}
	binDir = dir
	os.Exit(m.Run())
}

func bin(name string) string { return filepath.Join(binDir, name) }

// daemon starts a binary and kills it at test end.
func daemon(t *testing.T, name string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin(name), args...)
	var logBuf bytes.Buffer
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s log:\n%s", name, logBuf.String())
		}
	})
}

// waitListening blocks until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never came up", addr)
}

// run executes a CLI command, failing the test on error.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin(name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	var listeners []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

func TestCLIFullWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	addrs := freePorts(t, 4)
	lboneAddr, d1Addr, d2Addr, nwsAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	work := t.TempDir()
	secret := filepath.Join(work, "secret")
	if err := os.WriteFile(secret, []byte("clitest-secret-0123456789"), 0o600); err != nil {
		t.Fatal(err)
	}

	daemon(t, "lbone-server", "-listen", lboneAddr)
	waitListening(t, lboneAddr)
	daemon(t, "ibp-depot", "-listen", d1Addr, "-capacity", "104857600",
		"-secret-file", secret, "-lbone", lboneAddr, "-name", "UTK1", "-site", "UTK")
	daemon(t, "ibp-depot", "-listen", d2Addr, "-capacity", "104857600",
		"-secret-file", secret, "-lbone", lboneAddr, "-name", "UCSD1", "-site", "UCSD")
	daemon(t, "nws-server", "-listen", nwsAddr)
	waitListening(t, d1Addr)
	waitListening(t, d2Addr)
	waitListening(t, nwsAddr)

	// Source file.
	data := bytes.Repeat([]byte("cli round trip "), 20_000) // 300 KB
	src := filepath.Join(work, "src.dat")
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	xnd := filepath.Join(work, "src.xnd")

	// upload → ls → verify → download.
	out := run(t, "xnd", "upload", "-lbone", lboneAddr, "-replicas", "2", "-fragments", "3",
		"-o", xnd, src)
	if !strings.Contains(out, "uploaded") {
		t.Fatalf("upload output: %s", out)
	}
	out = run(t, "xnd", "ls", xnd)
	if !strings.Contains(out, "availability now: 100.00%") {
		t.Fatalf("ls output: %s", out)
	}
	out = run(t, "xnd", "verify", xnd)
	if !strings.Contains(out, "6 ok, 0 corrupt") {
		t.Fatalf("verify output: %s", out)
	}
	dst := filepath.Join(work, "dst.dat")
	run(t, "xnd", "download", "-nws-server", nwsAddr, "-o", dst, xnd)
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("download mismatch")
	}

	// Range download.
	part := filepath.Join(work, "part.dat")
	run(t, "xnd", "download", "-offset", "1000", "-length", "5000", "-o", part, xnd)
	gotPart, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPart, data[1000:6000]) {
		t.Fatal("range download mismatch")
	}

	// Encrypted round trip.
	encX := filepath.Join(work, "enc.xnd")
	run(t, "xnd", "upload", "-lbone", lboneAddr, "-encrypt-pass", "hunter2", "-o", encX, src)
	blob, err := os.ReadFile(encX)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `cipher="aes256-ctr"`) {
		t.Fatal("exnode missing cipher metadata")
	}
	encOut := filepath.Join(work, "enc.dat")
	run(t, "xnd", "download", "-decrypt-pass", "hunter2", "-o", encOut, encX)
	gotEnc, _ := os.ReadFile(encOut)
	if !bytes.Equal(gotEnc, data) {
		t.Fatal("encrypted round trip mismatch")
	}
	// Wrong passphrase: output differs from the source.
	badOut := filepath.Join(work, "bad.dat")
	run(t, "xnd", "download", "-decrypt-pass", "wrong", "-o", badOut, encX)
	gotBad, _ := os.ReadFile(badOut)
	if bytes.Equal(gotBad, data) {
		t.Fatal("wrong passphrase decrypted correctly")
	}

	// Reed-Solomon upload/download.
	rsX := filepath.Join(work, "rs.xnd")
	run(t, "xnd", "upload", "-lbone", lboneAddr, "-rs", "2,1", "-o", rsX, src)
	rsOut := filepath.Join(work, "rs.dat")
	run(t, "xnd", "download", "-o", rsOut, rsX)
	gotRS, _ := os.ReadFile(rsOut)
	if !bytes.Equal(gotRS, data) {
		t.Fatal("RS round trip mismatch")
	}

	// refresh, maintain, trim, status.
	run(t, "xnd", "refresh", "-duration", "48h", xnd)
	out = run(t, "xnd", "maintain", "-lbone", lboneAddr, "-min-coverage", "2", xnd)
	_ = out
	trimX := filepath.Join(work, "trim.xnd")
	run(t, "xnd", "trim", "-replica", "1", "-o", trimX, xnd)
	run(t, "xnd", "download", "-o", dst, trimX)
	got, _ = os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("download after trim mismatch")
	}
	out = run(t, "xnd", "status", d1Addr)
	if !strings.Contains(out, "bytes used") || !strings.Contains(out, "ops:") {
		t.Fatalf("status output: %s", out)
	}

	// The exNode directory, on the same lone lbone-server (started with no
	// -replicas): publish by name, list, fetch back, download the fetched
	// exNode, and lose a stale-version put.
	out = run(t, "xnd", "dir", "put", "-lbone", lboneAddr, "files/src", xnd)
	if !strings.Contains(out, "files/src v1") {
		t.Fatalf("dir put output: %s", out)
	}
	out = run(t, "xnd", "dir", "ls", "-lbone", lboneAddr)
	if !strings.Contains(out, "files/src") || !strings.Contains(out, "v1") {
		t.Fatalf("dir ls output: %s", out)
	}
	fetched := filepath.Join(work, "fetched.xnd")
	run(t, "xnd", "dir", "get", "-lbone", lboneAddr, "-o", fetched, "files/src")
	run(t, "xnd", "download", "-o", dst, fetched)
	got, _ = os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("download of the directory's exnode mismatch")
	}
	stale, err := exec.Command(bin("xnd"), "dir", "put", "-lbone", lboneAddr, "files/src", xnd).CombinedOutput()
	if err == nil || !strings.Contains(string(stale), "version conflict") {
		t.Fatalf("stale dir put: err %v, output: %s", err, stale)
	}
	out = run(t, "xnd", "dir", "put", "-lbone", lboneAddr, "-prev", "1", "files/src", xnd)
	if !strings.Contains(out, "files/src v2") {
		t.Fatalf("dir put -prev output: %s", out)
	}
	out = run(t, "xnd", "health", "-lbone", lboneAddr)
	if !strings.Contains(out, "depot health scoreboard (2 depots)") {
		t.Fatalf("health -lbone output: %s", out)
	}
}

// TestCLISloAndMetrics reads the two surfaces only xnd renders: a live
// stackmon's /slo through `xnd slo` (rendered and -json), and a depot's
// METRICS counters through `xnd metrics` (human and -prom).
func TestCLISloAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	addrs := freePorts(t, 2)
	depotAddr, monAddr := addrs[0], addrs[1]
	daemon(t, "ibp-depot", "-listen", depotAddr, "-capacity", "1048576")
	waitListening(t, depotAddr)
	// One probe-only sweep at start; the next is an hour away.
	daemon(t, "stackmon", "run", "-depots", depotAddr, "-interval", "1h", "-payload", "0",
		"-slo", "-metrics-listen", monAddr)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if c, err := net.DialTimeout("tcp", monAddr, 200*time.Millisecond); err == nil {
			c.Close()
			if _, body := get(t, "http://"+monAddr+"/metrics"); strings.Contains(body, "stackmon_sweeps_total 1") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("stackmon never finished its first sweep")
		}
	}

	out := run(t, "xnd", "slo", monAddr)
	for _, want := range []string{
		"depot-availability (depot_availability, target 95.00%, window 24h0m0s)",
		fmt.Sprintf("  %-24s good %6d  bad %4d  err %6.2f%%  budget %7.2f%%", depotAddr, 1, 0, 0.0, 100.0),
		"no firing alerts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xnd slo output lacks %q:\n%s", want, out)
		}
	}
	var st slo.Status
	if err := json.Unmarshal([]byte(run(t, "xnd", "slo", "-json", monAddr)), &st); err != nil {
		t.Fatalf("xnd slo -json: %v", err)
	}
	var avail *slo.ObjectiveStatus
	for i := range st.Objectives {
		if st.Objectives[i].Name == "depot-availability" {
			avail = &st.Objectives[i]
		}
	}
	if avail == nil || len(avail.Keys) != 1 {
		t.Fatalf("xnd slo -json depot-availability = %+v, want one key", avail)
	}
	if k := avail.Keys[0]; k.Key != depotAddr || k.Good != 1 || k.Bad != 0 || k.BudgetRemaining != 1 || k.LatencyP50 <= 0 {
		t.Errorf("xnd slo -json key = %+v, want %s with 1 good sweep, the whole budget and a probe latency", k, depotAddr)
	}

	counters := []string{"allocates", "stores", "loads", "probes", "extends", "deletes",
		"bytes_in", "bytes_out", "errors", "reaped", "connects", "restores", "cap_violations"}
	out = run(t, "xnd", "metrics", depotAddr)
	if !strings.HasPrefix(out, "depot "+depotAddr+" counters:\n") {
		t.Errorf("xnd metrics header: %q", out)
	}
	for _, c := range counters {
		if !regexp.MustCompile(`(?m)^  ` + c + ` +\d+$`).MatchString(out) {
			t.Errorf("xnd metrics lacks a %s row:\n%s", c, out)
		}
	}
	// The monitor's STATUS and this invocation each connected.
	if m := regexp.MustCompile(`(?m)^  connects +(\d+)$`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("xnd metrics connects row = %q, want > 0", m)
	}
	out = run(t, "xnd", "metrics", "-prom", depotAddr)
	for _, c := range counters {
		name := "ibp_depot_" + c + "_total"
		if !strings.Contains(out, "# TYPE "+name+" counter\n") ||
			!regexp.MustCompile(`(?m)^`+name+` \d+$`).MatchString(out) {
			t.Errorf("xnd metrics -prom lacks counter %s:\n%s", name, out)
		}
	}
}

func TestCLIUsageAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	// No args: usage on stderr, exit 2.
	cmd := exec.Command(bin("xnd"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatal("bare xnd should exit non-zero")
	}
	if !strings.Contains(string(out), "usage: xnd") {
		t.Fatalf("usage output: %s", out)
	}
	// Download of a nonexistent exnode fails cleanly.
	cmd = exec.Command(bin("xnd"), "download", "/nonexistent.xnd")
	if err := cmd.Run(); err == nil {
		t.Fatal("missing exnode should fail")
	}
}

func TestCLIHealthScoreboard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	addrs := freePorts(t, 2)
	liveAddr, deadAddr := addrs[0], addrs[1]
	daemon(t, "ibp-depot", "-listen", liveAddr, "-capacity", "1048576")
	waitListening(t, liveAddr)

	// Probe one live depot and one dead port enough times to trip the
	// breaker (default threshold 3). The dead port refuses instantly on
	// loopback, so this stays fast.
	out := run(t, "xnd", "health", "-probes", "4", liveAddr, deadAddr)
	if !strings.Contains(out, "depot health scoreboard (2 depots)") {
		t.Fatalf("health output: %s", out)
	}
	lines := strings.Split(out, "\n")
	var liveLine, deadLine string
	for _, l := range lines {
		if strings.Contains(l, liveAddr) {
			liveLine = l
		}
		if strings.Contains(l, deadAddr) {
			deadLine = l
		}
	}
	if !strings.Contains(liveLine, "closed") || !strings.Contains(liveLine, "100.0%") {
		t.Fatalf("live depot line: %q", liveLine)
	}
	if !strings.Contains(deadLine, "open") || !strings.Contains(deadLine, "backing off") {
		t.Fatalf("dead depot line: %q", deadLine)
	}
}

// waitRegistered blocks until the L-Bone at lboneAddr lists n depots. A
// depot registers just after it starts listening, so waitListening alone
// can let a client query the L-Bone before the depot is in it.
func waitRegistered(t *testing.T, lboneAddr string, n int) {
	t.Helper()
	want := fmt.Sprintf("depot health scoreboard (%d depots)", n)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		out, _ := exec.Command(bin("xnd"), "health", "-lbone", lboneAddr).CombinedOutput()
		if strings.Contains(string(out), want) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("the L-Bone at %s never listed %d depots", lboneAddr, n)
}

// TestCLIMaintainRepairsAfterDaemonDeath uploads two replicas onto two
// depots and kills one of them. With a third depot registered, maintain
// restores the second copy there, never beside the surviving one; with only
// the survivor left, it fails with the placer's detected error and leaves
// the exnode as it was.
func TestCLIMaintainRepairsAfterDaemonDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real binaries")
	}
	t.Run("spare depot", func(t *testing.T) { maintainAfterDaemonDeath(t, true) })
	t.Run("survivor only", func(t *testing.T) { maintainAfterDaemonDeath(t, false) })
}

func maintainAfterDaemonDeath(t *testing.T, spare bool) {
	addrs := freePorts(t, 4)
	lboneAddr, survivorAddr, victimAddr, spareAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	work := t.TempDir()
	secret := filepath.Join(work, "secret")
	os.WriteFile(secret, []byte("clitest-secret-0123456789"), 0o600)
	depotArgs := func(addr, name, site string) []string {
		return []string{"-listen", addr, "-capacity", "104857600",
			"-secret-file", secret, "-lbone", lboneAddr, "-name", name, "-site", site}
	}

	daemon(t, "lbone-server", "-listen", lboneAddr)
	waitListening(t, lboneAddr)
	daemon(t, "ibp-depot", depotArgs(survivorAddr, "UTK1", "UTK")...)
	// The second depot is run directly so the test can kill it.
	victim := exec.Command(bin("ibp-depot"), depotArgs(victimAddr, "UCSD1", "UCSD")...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { victim.Process.Kill(); victim.Wait() }()
	waitRegistered(t, lboneAddr, 2)

	data := bytes.Repeat([]byte("repairable "), 4096)
	src := filepath.Join(work, "r.dat")
	os.WriteFile(src, data, 0o644)
	xnd := filepath.Join(work, "r.xnd")
	run(t, "xnd", "upload", "-lbone", lboneAddr, "-replicas", "2", "-o", xnd, src)

	// Kill the second depot daemon outright: it stays listed, unreachable.
	victim.Process.Kill()
	victim.Wait()
	if spare {
		daemon(t, "ibp-depot", depotArgs(spareAddr, "UCSB1", "UCSB")...)
		waitRegistered(t, lboneAddr, 3)
	}

	before, err := os.ReadFile(xnd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin("xnd"), "maintain", "-lbone", lboneAddr, "-min-coverage", "2", xnd).CombinedOutput()
	if !spare {
		// The one live depot already holds the surviving copy.
		if err == nil || !strings.Contains(string(out), core.ErrNoDisjointDepot.Error()) {
			t.Fatalf("maintain with only the survivor left: err %v, want a failure naming %q:\n%s",
				err, core.ErrNoDisjointDepot, out)
		}
		if after, _ := os.ReadFile(xnd); !bytes.Equal(after, before) {
			t.Fatal("the failed maintain rewrote the exnode")
		}
		return
	}
	if err != nil || !strings.Contains(string(out), "added 1 replicas") {
		t.Fatalf("maintain: %v\n%s", err, out)
	}
	blob, err := os.ReadFile(xnd)
	if err != nil {
		t.Fatal(err)
	}
	x, err := exnode.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	on := map[string]int{}
	for _, m := range x.Mappings {
		on[m.Depot]++
	}
	if on["UTK1"] != 1 || on["UCSB1"] != 1 {
		t.Fatalf("mappings per depot after repair: %v, want the new copy on UCSB1 and one copy on UTK1", on)
	}

	// Download still works after repair.
	dst := filepath.Join(work, "r.out")
	run(t, "xnd", "download", "-o", dst, xnd)
	got, _ := os.ReadFile(dst)
	if !bytes.Equal(got, data) {
		t.Fatal("post-repair download mismatch")
	}
}
