package clitest

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// probeRoutes are the paths every daemon's HTTP surface is asked for. A
// route counts as mounted unless the mux answers with its own 404 page;
// malformed trace IDs get a handler's 400, which still proves the mount.
var probeRoutes = []string{
	"/metrics", "/healthz", "/slo", "/report",
	"/trace/NOT-A-TRACE", "/postmortem/NOT-A-TRACE", "/debug/pprof/",
	"/fleet/slo", "/fleet/report", "/fleet/trace/NOT-A-TRACE", "/fleet/query",
	"/fleet/series", "/fleet/budget", "/fleet/attribution",
}

// runtimeFamilies close every /metrics body.
var runtimeFamilies = []string{
	"go_gc_cycles_total", "go_gc_pause_seconds_total", "go_goroutines",
	"go_memstats_heap_alloc_bytes", "go_memstats_heap_objects", "go_memstats_heap_sys_bytes",
}

// processFamilies identify the daemon on every /metrics body.
var processFamilies = []string{"build_info", "process_uptime_seconds"}

// registryClientFamilies follow /metrics when the daemon runs a registry client.
var registryClientFamilies = []string{
	"registry_client_conn_reused_total", "registry_client_dials_total",
	"registry_client_failovers_total", "registry_client_majority_lost_total",
	"registry_client_ops_total", "registry_client_query_snapshot_hits_total",
	"registry_client_repairs_total", "registry_client_replica_failures_total",
	"registry_client_stale_retries_total",
}

// daemonCase is one binary's leg of TestDaemonsServeAndStopOnSIGTERM.
type daemonCase struct {
	bin string
	// args builds the command line from the line-protocol address, the
	// HTTP address and the shared registry address.
	args func(line, http, reg string) []string
	// probe is the request line the idle client sends once before it
	// idles; nil when the daemon speaks no line protocol.
	probe []string
	// component is the build_info component label; "" for no HTTP surface.
	component string
	routes    []string
	families  []string
	// ready, when set, is a /metrics line to wait for before the surface
	// is pinned: the daemon's first sweep adds data-driven families.
	ready string
}

func families(groups ...[]string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	sort.Strings(out)
	return out
}

// The six daemons of cmd/: each must come up on loopback, answer /healthz
// and a /metrics carrying its build_info, keep serving an idle line
// client, and exit 0 within 5 s of SIGTERM — severing that idle client
// instead of waiting on it. The route list and metric-family set of each
// HTTP surface are pinned, so a refactor of how surfaces are built cannot
// silently add or drop one.
func TestDaemonsServeAndStopOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	addrs := freePorts(t, 1)
	reg := addrs[0]
	daemon(t, "lbone-server", "-listen", reg)
	waitListening(t, reg)

	cases := []daemonCase{
		{
			bin: "ibp-depot",
			args: func(line, http, _ string) []string {
				return []string{"-listen", line, "-metrics-listen", http, "-pprof", "-capacity", "1048576"}
			},
			probe:     []string{"STATUS"},
			component: "ibp-depot",
			routes:    []string{"/debug/pprof/", "/healthz", "/metrics", "/postmortem/NOT-A-TRACE", "/trace/NOT-A-TRACE"},
			families: families(runtimeFamilies, processFamilies, []string{
				"ibp_depot_bytes_in_total", "ibp_depot_bytes_out_total", "ibp_depot_cap_violations_total",
				"ibp_depot_capacity_bytes", "ibp_depot_connects_total", "ibp_depot_errors_total",
				"ibp_depot_allocations", "ibp_depot_next_expiry_seconds", "ibp_depot_ops_total",
				"ibp_depot_reaped_total", "ibp_depot_restores_total", "ibp_depot_used_bytes",
				"obs_ring_dropped_total",
			}),
		},
		{
			bin: "lbone-server",
			args: func(line, http, _ string) []string {
				return []string{"-listen", line, "-metrics-listen", http, "-pprof"}
			},
			probe:     []string{"LIST"},
			component: "lbone-server",
			routes:    []string{"/debug/pprof/", "/healthz", "/metrics"},
			families: families(runtimeFamilies, processFamilies, registryClientFamilies, []string{
				"lbone_bad_requests_total", "lbone_connects_total", "lbone_control_ops_total",
				"lbone_controls_registered", "lbone_depots_live", "lbone_depots_registered",
				"lbone_depots_returned_total", "lbone_deregisters_total", "lbone_heartbeats_total",
				"lbone_queries_total", "lbone_registers_total",
				"registry_dir_conflicts_total", "registry_dir_entries", "registry_dir_gets_total",
				"registry_dir_lists_total", "registry_dir_log_len", "registry_dir_puts_total",
				"registry_quorum_reads_total", "registry_quorum_writes_total", "registry_stale_views_total",
				"registry_view_members", "registry_view_requests_total", "registry_view_seq",
			}),
		},
		{
			bin: "nws-server",
			args: func(line, _, _ string) []string {
				return []string{"-listen", line}
			},
			probe: []string{"FORECAST", "UTK", "d1", "bandwidth"},
		},
		{
			bin: "maintaind",
			args: func(_, http, reg string) []string {
				return []string{"-lbone", reg, "-metrics-listen", http, "-pprof",
					"-interval", "1h", "-probe-interval", "1h"}
			},
			component: "maintaind",
			routes: []string{"/debug/pprof/", "/healthz", "/metrics", "/postmortem/NOT-A-TRACE",
				"/report", "/slo", "/trace/NOT-A-TRACE"},
			families: families(runtimeFamilies, processFamilies, registryClientFamilies, []string{
				"obs_ring_dropped_total",
				"repair_below_target_total", "repair_files_at_risk", "repair_files_queued_total",
				"repair_files_scanned_total", "repair_pass_failures_total", "repair_passes_total",
				"repair_queue_depth", "repair_refreshed_total", "repair_replicas_added_total",
				"repair_republish_conflicts_total", "repair_sweeps_total", "repair_trimmed_dead_total",
				"repair_limiter_hedge_cancels_total", "repair_limiter_hedge_wins_total",
				"repair_limiter_hedges_total", "repair_limiter_limit_acquires_total",
				"repair_limiter_limit_waits_total", "repair_limiter_singleflight_leader_total",
				"repair_limiter_singleflight_shared_total",
				"slo_error_budget_remaining_ratio", "slo_sli_bad_total", "slo_sli_good_total",
			}),
			ready: `repair_sweeps_total{shard="shard0/1"} 1`,
		},
		{
			bin: "obsd",
			args: func(_, http, reg string) []string {
				return []string{"-lbone", reg, "-listen", http, "-pprof", "-interval", "1h"}
			},
			component: "obsd",
			routes: []string{"/debug/pprof/", "/fleet/attribution", "/fleet/budget", "/fleet/query",
				"/fleet/report", "/fleet/series", "/fleet/slo", "/fleet/trace/NOT-A-TRACE",
				"/healthz", "/metrics"},
			families: families(runtimeFamilies, processFamilies, registryClientFamilies, []string{
				"obsd_list_errors_total", "obsd_member_up", "obsd_members",
				"obsd_profiles_captured_total", "obsd_scrape_errors_total", "obsd_scrapes_total",
				"obsd_sweeps_total",
			}),
			ready: "obsd_sweeps_total 1",
		},
		{
			bin: "stackmon",
			args: func(_, http, reg string) []string {
				return []string{"run", "-lbone", reg, "-metrics-listen", http, "-pprof",
					"-interval", "1h", "-payload", "0"}
			},
			component: "stackmon",
			routes:    []string{"/debug/pprof/", "/healthz", "/metrics", "/report"},
			families: families(runtimeFamilies, processFamilies, registryClientFamilies, []string{
				"stackmon_depots", "stackmon_sweeps_total",
			}),
			ready: "stackmon_sweeps_total 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.bin, func(t *testing.T) { runDaemonCase(t, tc, reg) })
	}
}

func runDaemonCase(t *testing.T, tc daemonCase, reg string) {
	ports := freePorts(t, 2)
	lineAddr, httpAddr := ports[0], ports[1]
	cmd := exec.Command(bin(tc.bin), tc.args(lineAddr, httpAddr, reg)...)
	var logBuf bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
		if t.Failed() {
			t.Logf("%s log:\n%s", tc.bin, logBuf.String())
		}
	}()

	if tc.component != "" {
		waitListening(t, httpAddr)
		checkSurface(t, tc, "http://"+httpAddr)
	}
	var idle *wire.Conn
	if tc.probe != nil {
		waitListening(t, lineAddr)
		raw, err := net.Dial("tcp", lineAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		idle = wire.NewConn(raw)
		if err := idle.WriteLine(tc.probe...); err != nil {
			t.Fatal(err)
		}
		if _, err := idle.ReadStatus(); err != nil && !wire.IsRemoteAny(err) {
			t.Fatalf("%s: %v", strings.Join(tc.probe, " "), err)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred cleanup
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("still running 5s after SIGTERM")
	}
	if idle != nil {
		idle.SetDeadline(time.Now().Add(time.Second))
		var ne net.Error
		if _, err := idle.ReadLine(); err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("idle client connection not closed by shutdown: %v", err)
		}
	}
}

// checkSurface scrapes the daemon's HTTP surface and compares it with the
// pinned routes and metric families.
func checkSurface(t *testing.T, tc daemonCase, base string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); tc.ready != ""; time.Sleep(50 * time.Millisecond) {
		if _, body := get(t, base+"/metrics"); strings.Contains(body, tc.ready) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %q", tc.ready)
		}
	}
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	_, body := get(t, base+"/metrics")
	if !strings.Contains(body, `build_info{component="`+tc.component+`"`) {
		t.Errorf("/metrics has no build_info for component %q", tc.component)
	}
	var routes []string
	for _, path := range probeRoutes {
		code, page := get(t, base+path)
		if code != http.StatusNotFound || page != "404 page not found\n" {
			routes = append(routes, path)
		}
	}
	sort.Strings(routes)
	if !slices.Equal(routes, tc.routes) {
		t.Errorf("routes = %q\nwant     %q", routes, tc.routes)
	}
	if got := metricFamilies(body); !slices.Equal(got, tc.families) {
		t.Errorf("metric families = %q\nwant              %q", got, tc.families)
	}
}

// metricFamilies lists the families a /metrics body declares. obsd's
// fleet_ aggregates mirror whatever its members serve, so they are not
// part of any one daemon's own set.
func metricFamilies(body string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && !strings.HasPrefix(f[2], "fleet_") {
			out = append(out, f[2])
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}
