// Command xnd is the Logistical Tools CLI (paper §2.3): upload local data
// into network storage as a striped, replicated exNode; download, list,
// refresh, augment, trim and route exNode files; query depot status.
//
// Examples:
//
//	xnd upload  -lbone host:6767 -replicas 3 -fragments 4 -o file.xnd file.dat
//	xnd download -o file.dat file.xnd
//	xnd download -hedge -readahead 4 -o file.dat file.xnd
//	xnd ls file.xnd
//	xnd refresh -duration 240h file.xnd
//	xnd augment -lbone host:6767 -near UCSD -o file2.xnd file.xnd
//	xnd trim -expired -o file2.xnd file.xnd
//	xnd dir put -lbone h1:6767,h2:6767,h3:6767 files/report file.xnd
//	xnd dir get -lbone h1:6767,h2:6767,h3:6767 -o file.xnd files/report
//	xnd status host:6714
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sealing"
	"repro/internal/slo"
	"repro/internal/transfer"
)

// traceOn enables the global --trace flag: every IBP operation is recorded
// by an obs.Collector and dumped (with per-transfer timelines) on exit.
// Commands that support cross-layer tracing additionally mint rootSpan, and
// every layer below — core extents, transfer hedges, IBP client ops, depot
// server spans — hangs its events off it; dumpTrace then renders the joined
// timeline.
var (
	traceOn  bool
	traceCol *obs.Collector
	rootSpan obs.SpanContext
)

// The always-on observability plane: every invocation keeps a flight
// recorder of recent log records and IBP/hedge/breaker events, feeds an
// SLO engine, and tracks NWS forecast error. On failure the recorder is
// cut into a postmortem bundle (written to -postmortem-dir or
// $XND_POSTMORTEM_DIR when set).
var (
	logJSON       bool
	postmortemDir string
	recorder      *obs.FlightRecorder
	forecasts     *obs.ForecastTracker
	sloEngine     *slo.Engine
	logger        *slog.Logger
	lastTools     *core.Tools
	// quorum is the registry client of this invocation, if it built one;
	// main hangs up its parked sessions on the way out.
	quorum *registry.QuorumClient
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xnd: ")
	args := stripGlobalFlags(os.Args[1:])
	if postmortemDir == "" {
		postmortemDir = os.Getenv("XND_POSTMORTEM_DIR")
	}
	recorder = obs.NewFlightRecorder(0)
	forecasts = obs.NewForecastTracker(recorder)
	logger = obs.NewLogger(obs.LogConfig{JSON: logJSON, Component: "xnd", Recorder: recorder})
	sloEngine = slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(),
		Logger:     logger,
		Recorder:   recorder,
	})
	if len(args) < 1 {
		usage()
	}
	cmd, args := args[0], args[1:]
	var err error
	switch cmd {
	case "upload":
		err = cmdUpload(args)
	case "download":
		err = cmdDownload(args)
	case "ls":
		err = cmdLs(args)
	case "refresh":
		err = cmdRefresh(args)
	case "augment":
		err = cmdAugment(args)
	case "trim":
		err = cmdTrim(args)
	case "route":
		err = cmdRoute(args)
	case "verify":
		err = cmdVerify(args)
	case "maintain":
		err = cmdMaintain(args)
	case "dir":
		err = cmdDir(args)
	case "status":
		err = cmdStatus(args)
	case "health":
		err = cmdHealth(args)
	case "metrics":
		err = cmdMetrics(args)
	case "slo":
		err = cmdSlo(args)
	default:
		usage()
	}
	if quorum != nil {
		quorum.Close()
	}
	if lastTools != nil {
		lastTools.IBP.Close()
	}
	dumpTrace()
	if err != nil {
		cutPostmortem(err)
		log.Fatal(err)
	}
}

// stripGlobalFlags removes whole-invocation flags anywhere on the command
// line (they are modes of the run, not of one subcommand): -trace,
// -log-json, and -postmortem-dir DIR (or -postmortem-dir=DIR).
func stripGlobalFlags(args []string) []string {
	out := args[:0:0]
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, hasVal := strings.Cut(strings.TrimPrefix(a, "-"), "=")
		switch "-" + strings.TrimPrefix(name, "-") {
		case "-trace":
			traceOn = true
			continue
		case "-log-json":
			logJSON = true
			continue
		case "-postmortem-dir":
			if hasVal {
				postmortemDir = val
			} else if i+1 < len(args) {
				i++
				postmortemDir = args[i]
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// cutPostmortem stores and (when a directory is configured) writes a
// postmortem bundle for a failed invocation: the flight-recorder timeline,
// breaker snapshots, and the forecast-error samples for the depots the
// command touched.
func cutPostmortem(cmdErr error) {
	if recorder == nil {
		return
	}
	b := obs.Bundle{
		Reason:      "nonzero-exit",
		Component:   "xnd",
		CreatedAt:   time.Now(),
		Err:         cmdErr.Error(),
		Entries:     recorder.Recent(0),
		RingDropped: recorder.Dropped(),
	}
	if rootSpan.Valid() {
		b.Trace = rootSpan.TraceID
	}
	if lastTools != nil && lastTools.Health != nil {
		for _, d := range lastTools.Health.Snapshot() {
			b.Breakers = append(b.Breakers, obs.BreakerSnap{
				Addr: d.Addr, State: d.State.String(), Score: d.Score,
				Trips: int64(d.Trips), Reclosed: d.Reclosed, RetryAt: d.RetryAt,
			})
		}
	}
	if forecasts != nil {
		b.Forecasts = forecasts.RecentFor(b.Depots())
	}
	recorder.StoreBundle(b)
	if postmortemDir == "" {
		return
	}
	path, err := obs.WriteBundle(postmortemDir, b)
	if err != nil {
		log.Printf("postmortem: %v", err)
		return
	}
	log.Printf("postmortem bundle written to %s", path)
}

// dumpTrace prints the recorded operation events and per-depot aggregates
// to stderr. It runs on success AND on failure — traces of failed
// transfers are the ones worth reading.
func dumpTrace() {
	if traceCol == nil || traceCol.Total() == 0 {
		return
	}
	if rootSpan.Valid() {
		fmt.Fprintf(os.Stderr, "\n--- joined timeline (trace %s) ---\n", rootSpan.TraceID)
		fmt.Fprint(os.Stderr, traceCol.RenderTrace(rootSpan.TraceID))
	}
	fmt.Fprint(os.Stderr, "\n--- operation trace ---\n")
	fmt.Fprint(os.Stderr, traceCol.RenderEvents(50))
	fmt.Fprint(os.Stderr, "\n--- per-depot aggregates ---\n")
	fmt.Fprint(os.Stderr, traceCol.Render())
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xnd [--trace] <command> [flags]

commands:
  upload    store a local file into the network, emitting an exnode
  download  reassemble a file from an exnode
  ls        list an exnode's segments with availability and metadata
  refresh   extend the time limits of an exnode's allocations
  augment   add replicas to an exnode
  trim      remove fragments from an exnode
  route     move a file toward a new location (augment + trim)
  verify    audit every segment's availability and checksum
  maintain  refresh, trim dead segments, and repair lost redundancy
  dir       publish/fetch/list exnodes in the replicated registry directory
  status    query a depot's capacity and limits
  health    probe depots and print the health scoreboard
  metrics   fetch a depot's operation counters (METRICS verb)
  slo       render SLO status: local objectives, or a daemon's /slo endpoint

--trace records every IBP operation and prints per-transfer timelines
(including failed attempts) plus per-depot latency aggregates to stderr.
--log-json switches structured logs from human text to JSON lines.
--postmortem-dir DIR (or $XND_POSTMORTEM_DIR) writes a postmortem bundle
(flight-recorder timeline, breaker states, forecast errors) on failure.`)
	os.Exit(2)
}

// commonFlags holds flags shared by the tools.
type commonFlags struct {
	fs          *flag.FlagSet
	lbone       *string
	site        *string
	timeout     *time.Duration
	useNWS      *bool
	nwsServer   *string
	hedge       *bool
	hedgeAfter  *time.Duration
	maxPerDepot *int
	metricsAddr *string
	pprofOn     *bool
}

func newFlags(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:          fs,
		lbone:       fs.String("lbone", os.Getenv("XND_LBONE"), "L-Bone server, or comma-separated replica group (or $XND_LBONE)"),
		site:        fs.String("site", envOr("XND_SITE", "UTK"), "client site name for proximity/NWS (or $XND_SITE)"),
		timeout:     fs.Duration("timeout", 30*time.Second, "per-operation timeout"),
		useNWS:      fs.Bool("nws", true, "keep a local NWS to guide downloads"),
		nwsServer:   fs.String("nws-server", os.Getenv("XND_NWS"), "remote NWS daemon address (or $XND_NWS; overrides -nws)"),
		hedge:       fs.Bool("hedge", false, "hedge slow extent fetches against the next-ranked replica"),
		hedgeAfter:  fs.Duration("hedge-after", 0, "fixed hedging threshold (0 = adapt from the health scoreboard)"),
		maxPerDepot: fs.Int("max-per-depot", 4, "concurrent operations allowed per depot"),
		metricsAddr: fs.String("metrics-listen", "", "serve transfer-engine /metrics over HTTP on this address while the command runs (empty = off)"),
		pprofOn:     fs.Bool("pprof", false, "also serve /debug/pprof on the metrics listener"),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// tools builds the Logistical Tools client from common flags. Every
// command shares one health scoreboard between the IBP client (which
// reports outcomes and consults the breaker) and the tools (which rank
// and place around open circuits).
func (c *commonFlags) tools() (*core.Tools, error) {
	site, ok := geo.LookupSite(*c.site)
	if !ok {
		return nil, fmt.Errorf("unknown site %q", *c.site)
	}
	sb := health.New(health.Config{
		// Breaker transitions land in the flight recorder so a postmortem
		// bundle shows when each depot's circuit opened and re-closed.
		OnTransition: func(addr string, from, to health.State, at time.Time) {
			recorder.BreakerTransition(addr, from.String(), to.String(), at)
		},
	})
	opts := []ibp.Option{ibp.WithOpTimeout(*c.timeout), ibp.WithHealth(sb)}
	// Every IBP op feeds the flight recorder and the SLO engine; the trace
	// collector joins in only under --trace. (A nil *Collector must not
	// reach Tee as a typed-nil Observer, so it is added conditionally.)
	tees := []obs.Observer{recorder, slo.ObserveIBP(sloEngine)}
	if traceOn {
		traceCol = obs.NewCollector(obs.DefaultRingSize)
		tees = append(tees, traceCol)
	}
	observer := obs.Tee(tees...)
	opts = append(opts, ibp.WithObserver(observer))
	t := &core.Tools{
		IBP:      ibp.NewClient(opts...),
		Site:     site.Name,
		Loc:      site.Loc,
		Health:   sb,
		Logger:   logger,
		Forecast: forecasts,
	}
	lastTools = t
	if *c.lbone != "" {
		// One server or a comma-separated replica group, -lbone names a
		// view: discovery and the exNode directory go through its majority,
		// and every per-replica outcome feeds the registry-availability SLI.
		quorum = newQuorum(*c.lbone, *c.timeout)
		t.LBone = quorum
		t.Directory = registry.NewDirectory(quorum)
	}
	switch {
	case *c.nwsServer != "":
		t.NWS = nws.NewRemote(*c.nwsServer)
	case *c.useNWS:
		t.NWS = nws.NewService(nil)
	}
	// The transfer engine always runs (its per-depot limiter and coded
	// singleflight are pure wins); -hedge additionally arms backup requests.
	engCfg := transfer.Config{
		Hedge:       *c.hedge,
		HedgeAfter:  *c.hedgeAfter,
		MaxPerDepot: *c.maxPerDepot,
		Health:      sb,
		Logger:      logger,
		// Hedge launches/wins/cancellations join the same event stream as
		// the IBP ops, so traced downloads show the racing attempts and
		// the flight recorder keeps them for postmortems.
		Observer: observer,
	}
	if src := t.NWS; src != nil {
		engCfg.Forecast = func(addr string) (float64, bool) {
			return src.Forecast(site.Name, addr, nws.Bandwidth)
		}
	}
	t.Transfer = transfer.New(engCfg)
	if *c.metricsAddr != "" {
		surface := obs.Surface{
			Component: "xnd", Started: time.Now(), SLO: sloEngine, Recorder: recorder, Pprof: *c.pprofOn,
			Metrics: func() []obs.Metric {
				ms := t.Transfer.Metrics("xnd_transfer_")
				if traceCol != nil {
					ms = append(ms, traceCol.CollectorMetrics("xnd_ibp_")...)
				}
				ms = append(ms, forecasts.Metrics()...)
				if quorum != nil {
					ms = append(ms, quorum.Metrics()...)
				}
				return ms
			},
		}
		go func() {
			if err := http.ListenAndServe(*c.metricsAddr, surface.Mux()); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}
	return t, nil
}

// newQuorum builds the invocation's one registry client.
func newQuorum(addrs string, timeout time.Duration) *registry.QuorumClient {
	return registry.NewQuorumClient(addrs,
		registry.WithTimeouts(5*time.Second, timeout),
		registry.WithObserver(slo.ObserveRegistry(sloEngine)))
}

func readExnode(path string) (*exnode.ExNode, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return exnode.Unmarshal(data)
}

func writeExnode(path string, x *exnode.ExNode) error {
	data, err := exnode.Marshal(x)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cmdDir manipulates the replicated exNode directory: put publishes an
// exnode file under a name, get fetches it back, ls lists names with
// their current versions.
func cmdDir(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: xnd dir put|get|ls [flags]")
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("dir "+sub, flag.ExitOnError)
	lboneAddr := fs.String("lbone", os.Getenv("XND_LBONE"), "L-Bone server, or comma-separated replica group (or $XND_LBONE)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-operation timeout")
	prev := fs.Int64("prev", 0, "put: version being replaced (0 = new name; pass the version get printed)")
	out := fs.String("o", "-", "get: output exnode path (- = stdout)")
	fs.Parse(args)
	if *lboneAddr == "" {
		return fmt.Errorf("dir needs -lbone (or $XND_LBONE)")
	}
	quorum = newQuorum(*lboneAddr, *timeout)
	dir := registry.NewDirectory(quorum)
	switch sub {
	case "put":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: xnd dir put [-prev N] NAME FILE.xnd")
		}
		name := fs.Arg(0)
		x, err := readExnode(fs.Arg(1))
		if err != nil {
			return err
		}
		version, err := dir.PutExNode(name, x, *prev)
		if err != nil {
			return err
		}
		fmt.Printf("%s v%d\n", name, version)
		return nil
	case "get":
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: xnd dir get [-o FILE] NAME")
		}
		x, version, err := dir.GetExNode(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s v%d\n", fs.Arg(0), version)
		return writeExnode(*out, x)
	case "ls":
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: xnd dir ls")
		}
		entries, err := dir.ListExNodes()
		if err != nil {
			return err
		}
		for _, e := range entries {
			fmt.Printf("v%-6d %s\n", e.Version, e.Name)
		}
		return nil
	default:
		return fmt.Errorf("unknown dir subcommand %q (want put, get or ls)", sub)
	}
}

func cmdUpload(args []string) error {
	c := newFlags("upload")
	replicas := c.fs.Int("replicas", 1, "number of full copies")
	fragments := c.fs.Int("fragments", 1, "fragments per copy (striping)")
	duration := c.fs.Duration("duration", core.DefaultDuration, "allocation lifetime")
	checksum := c.fs.Bool("checksum", true, "record per-fragment SHA-256 digests")
	near := c.fs.String("near", "", "place fragments near this site")
	rs := c.fs.String("rs", "", "Reed-Solomon coding as k,m (e.g. 4,2) instead of replication")
	pass := c.fs.String("encrypt-pass", "", "seal the file with AES-256-CTR under this passphrase")
	placement := c.fs.String("placement", "rotate", "depot assignment: rotate|site-diverse")
	parallel := c.fs.Int("parallel", 1, "concurrent fragment uploads")
	out := c.fs.String("o", "-", "output exnode path (- = stdout)")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("upload wants exactly one input file")
	}
	data, err := os.ReadFile(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	var x *exnode.ExNode
	if *rs != "" {
		k, m, err := parseKM(*rs)
		if err != nil {
			return err
		}
		x, err = t.UploadRS(c.fs.Arg(0), data, core.CodedOptions{
			DataBlocks: k, ParityBlocks: m,
			Duration: *duration, Checksum: *checksum,
		})
		if err != nil {
			return err
		}
	} else {
		opts := core.UploadOptions{
			Replicas:  *replicas,
			Fragments: *fragments,
			Duration:  *duration,
			Checksum:  *checksum,
		}
		if *pass != "" {
			opts.EncryptionKey = sealing.DeriveKey(*pass)
		}
		opts.Parallelism = *parallel
		switch *placement {
		case "rotate":
		case "site-diverse":
			opts.Placement = core.PlacementSiteDiverse
		default:
			return fmt.Errorf("unknown placement %q", *placement)
		}
		if *near != "" {
			s, ok := geo.LookupSite(*near)
			if !ok {
				return fmt.Errorf("unknown site %q", *near)
			}
			opts.Near = &s.Loc
		}
		rep := &core.UploadReport{}
		if traceOn {
			opts.Report = rep
		}
		x, err = t.Upload(c.fs.Arg(0), data, opts)
		if traceOn && len(rep.Fragments) > 0 {
			fmt.Fprint(os.Stderr, "--- upload timeline ---\n", rep.Timeline())
		}
		if err != nil {
			return err
		}
	}
	log.Printf("uploaded %d bytes as %d mappings", len(data), len(x.Mappings))
	return writeExnode(*out, x)
}

func parseKM(s string) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -rs %q, want k,m", s)
	}
	k, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad -rs %q, want k,m", s)
	}
	return k, m, nil
}

func cmdDownload(args []string) error {
	c := newFlags("download")
	out := c.fs.String("o", "-", "output file (- = stdout)")
	offset := c.fs.Int64("offset", 0, "range start")
	length := c.fs.Int64("length", -1, "range length (-1 = to end)")
	parallel := c.fs.Int("parallel", 1, "concurrent extent fetchers")
	readahead := c.fs.Int("readahead", 0, "stream the download, prefetching this many extents ahead (0 = whole-range download)")
	strategy := c.fs.String("strategy", "auto", "depot ranking: auto|nws|static|random")
	pass := c.fs.String("decrypt-pass", "", "passphrase for encrypted exnodes")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("download wants exactly one exnode")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	n := *length
	if n < 0 {
		n = x.Size - *offset
	}
	dlOpts := core.DownloadOptions{
		Strategy:    strat,
		Parallelism: *parallel,
		Readahead:   *readahead,
	}
	if *pass != "" {
		dlOpts.DecryptionKey = sealing.DeriveKey(*pass)
	}
	if traceOn {
		// Root of the cross-layer trace: core extents, transfer hedges, IBP
		// ops and depot server spans all hang below this span.
		rootSpan = obs.NewRootSpan()
		dlOpts.Span = rootSpan
	}
	note := fmt.Sprintf("%s [%d,%d)", c.fs.Arg(0), *offset, *offset+n)
	start := time.Now()
	if *readahead > 0 {
		// Streaming mode: bytes flow to the output as extents arrive, with
		// memory bounded at readahead+1 extents instead of the whole range.
		err := streamDownload(t, x, *offset, n, dlOpts, *out)
		recordRoot(start, note, n, err)
		return err
	}
	data, rep, err := t.DownloadRange(x, *offset, n, dlOpts)
	recordRoot(start, note, n, err)
	if traceOn && rep != nil {
		fmt.Fprint(os.Stderr, "--- download timeline ---\n", rep.Timeline())
	}
	if err != nil {
		return err
	}
	log.Printf("downloaded %d bytes in %v (%d extents, %d failovers)",
		rep.Bytes, rep.Duration.Round(time.Millisecond), len(rep.Extents), rep.Failovers)
	if *out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// recordRoot closes the trace's root span: one DOWNLOAD event spanning the
// whole command, which every extent span names as its parent.
func recordRoot(start time.Time, note string, bytes int64, err error) {
	if traceCol == nil || !rootSpan.Valid() {
		return
	}
	ev := obs.Event{
		Time: start, Verb: "DOWNLOAD", Latency: time.Since(start),
		Trace: rootSpan.TraceID, Span: rootSpan.SpanID,
		Note: note, Outcome: "ok",
	}
	if err != nil {
		ev.Outcome = "error"
		ev.Err = err.Error()
	} else {
		ev.Bytes = bytes
	}
	traceCol.Record(ev)
}

// streamDownload copies a ranged download to its destination through the
// streaming reader (xnd download -readahead N).
func streamDownload(t *core.Tools, x *exnode.ExNode, offset, length int64, opts core.DownloadOptions, out string) error {
	r, rep, err := t.OpenRangeReader(x, offset, length, opts)
	if err != nil {
		return err
	}
	defer r.Close()
	dst := io.Writer(os.Stdout)
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	_, err = io.Copy(dst, r)
	if traceOn && rep != nil {
		fmt.Fprint(os.Stderr, "--- download timeline ---\n", rep.Timeline())
	}
	if err != nil {
		return err
	}
	log.Printf("streamed %d bytes in %v (%d extents, %d failovers)",
		rep.Bytes, rep.Duration.Round(time.Millisecond), len(rep.Extents), rep.Failovers)
	return nil
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "auto":
		return core.StrategyAuto, nil
	case "nws":
		return core.StrategyNWS, nil
	case "static":
		return core.StrategyStatic, nil
	case "random":
		return core.StrategyRandom, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func cmdLs(args []string) error {
	c := newFlags("ls")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("ls wants exactly one exnode")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	entries := t.List(x)
	fmt.Print(core.FormatList(x.Name, x.Size, entries))
	fmt.Printf("segment availability now: %.2f%%\n", core.Availability(entries))
	return nil
}

func cmdRefresh(args []string) error {
	c := newFlags("refresh")
	duration := c.fs.Duration("duration", core.DefaultDuration, "new lifetime from now")
	out := c.fs.String("o", "", "write the updated exnode here (default: in place)")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("refresh wants exactly one exnode")
	}
	path := c.fs.Arg(0)
	x, err := readExnode(path)
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	n, err := t.Refresh(x, *duration)
	log.Printf("refreshed %d of %d segments", n, len(x.Mappings))
	if err != nil {
		log.Printf("warning: %v", err)
	}
	if *out == "" {
		*out = path
	}
	return writeExnode(*out, x)
}

func cmdAugment(args []string) error {
	c := newFlags("augment")
	replicas := c.fs.Int("replicas", 1, "copies to add")
	fragments := c.fs.Int("fragments", 1, "fragments per new copy")
	near := c.fs.String("near", "", "place new copies near this site")
	thirdParty := c.fs.Bool("third-party", false, "replicate with depot-to-depot COPY (data never passes through this client)")
	out := c.fs.String("o", "-", "output exnode path")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("augment wants exactly one exnode")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	opts := core.AugmentOptions{Replicas: *replicas, Fragments: *fragments, ThirdParty: *thirdParty}
	if *near != "" {
		s, ok := geo.LookupSite(*near)
		if !ok {
			return fmt.Errorf("unknown site %q", *near)
		}
		opts.Near = &s.Loc
	}
	aug, err := t.Augment(x, opts)
	if err != nil {
		return err
	}
	log.Printf("augmented to %d replicas, %d mappings", aug.Replicas(), len(aug.Mappings))
	return writeExnode(*out, aug)
}

func cmdTrim(args []string) error {
	c := newFlags("trim")
	indices := c.fs.String("segments", "", "comma-separated mapping indices to remove")
	expired := c.fs.Bool("expired", false, "remove expired mappings")
	replica := c.fs.Int("replica", -1, "remove this replica index entirely")
	deleteIBP := c.fs.Bool("delete", false, "also delete the byte arrays from their depots")
	out := c.fs.String("o", "-", "output exnode path")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("trim wants exactly one exnode")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	opts := core.TrimOptions{Expired: *expired, DeleteFromIBP: *deleteIBP}
	if *indices != "" {
		for _, part := range strings.Split(*indices, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad segment index %q", part)
			}
			opts.Indices = append(opts.Indices, i)
		}
	}
	if *replica >= 0 {
		opts.Replica = replica
	}
	trimmed, err := t.Trim(x, opts)
	if err != nil {
		return err
	}
	log.Printf("trimmed %d -> %d mappings", len(x.Mappings), len(trimmed.Mappings))
	return writeExnode(*out, trimmed)
}

func cmdRoute(args []string) error {
	c := newFlags("route")
	to := c.fs.String("to", "", "destination site (required)")
	replicas := c.fs.Int("replicas", 1, "copies at the destination")
	out := c.fs.String("o", "-", "output exnode path")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 || *to == "" {
		return fmt.Errorf("route wants one exnode and -to <site>")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	s, ok := geo.LookupSite(*to)
	if !ok {
		return fmt.Errorf("unknown site %q", *to)
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	routed, err := t.Route(x, s.Loc, core.AugmentOptions{Replicas: *replicas})
	if err != nil {
		return err
	}
	log.Printf("routed to %s: %d mappings", s.Name, len(routed.Mappings))
	return writeExnode(*out, routed)
}

func cmdVerify(args []string) error {
	c := newFlags("verify")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("verify wants exactly one exnode")
	}
	x, err := readExnode(c.fs.Arg(0))
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	res := t.Verify(x)
	for _, e := range res.Entries {
		fmt.Printf("%3d %-12s %-8s [%d:%d)", e.Index, e.State, e.Mapping.Depot, e.Mapping.Offset, e.Mapping.End())
		if e.Err != nil {
			fmt.Printf("  %v", e.Err)
		}
		fmt.Println()
	}
	fmt.Println(res)
	if !res.Healthy() {
		os.Exit(1)
	}
	return nil
}

func cmdMaintain(args []string) error {
	c := newFlags("maintain")
	minCov := c.fs.Int("min-coverage", 2, "minimum available copies per extent")
	refreshBelow := c.fs.Duration("refresh-below", 24*time.Hour, "refresh when any segment expires within this window")
	refreshTo := c.fs.Duration("refresh-to", core.DefaultDuration, "new lifetime granted by refreshes and repairs")
	out := c.fs.String("o", "", "write the maintained exnode here (default: in place)")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("maintain wants exactly one exnode")
	}
	path := c.fs.Arg(0)
	x, err := readExnode(path)
	if err != nil {
		return err
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	maintained, rep, err := t.Maintain(x, core.MaintainOptions{
		MinCoverage:  *minCov,
		RefreshBelow: *refreshBelow,
		RefreshTo:    *refreshTo,
	})
	if traceOn && rep != nil {
		for _, e := range rep.Events {
			fmt.Fprintf(os.Stderr, "maintain %s\n", e)
		}
	}
	if err != nil {
		return err
	}
	log.Printf("maintain: refreshed %d, trimmed %d dead, added %d replicas; worst-extent coverage %d",
		rep.Refreshed, rep.TrimmedDead, rep.AddedReplicas, rep.MinCoverage)
	if *out == "" {
		*out = path
	}
	return writeExnode(*out, maintained)
}

func cmdHealth(args []string) error {
	c := newFlags("health")
	probes := c.fs.Int("probes", 3, "status probes per depot")
	c.fs.Parse(args)
	addrs := c.fs.Args()
	t, err := c.tools()
	if err != nil {
		return err
	}
	if len(addrs) == 0 {
		if *c.lbone == "" {
			return fmt.Errorf("health wants depot addresses or -lbone")
		}
		depots, err := t.LBone.Query(lbone.Requirements{})
		if err != nil {
			return fmt.Errorf("depot discovery: %w", err)
		}
		for _, d := range depots {
			addrs = append(addrs, d.Addr)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("no depots to probe")
	}
	for i := 0; i < *probes; i++ {
		for _, addr := range addrs {
			if _, err := t.IBP.Status(addr); err != nil {
				log.Printf("probe %s: %v", addr, err)
			}
		}
	}
	fmt.Print(t.Health.Render())
	return nil
}

func cmdStatus(args []string) error {
	c := newFlags("status")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("status wants exactly one depot address")
	}
	t, err := c.tools()
	if err != nil {
		return err
	}
	st, err := t.IBP.Status(c.fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("depot %s: %d/%d bytes used (%d available), %d allocations, max duration %v\n",
		c.fs.Arg(0), st.UsedBytes, st.TotalBytes, st.AvailableBytes(), st.Allocations, st.MaxDuration)
	if m, err := t.IBP.Metrics(c.fs.Arg(0)); err == nil {
		fmt.Printf("ops: %d allocate, %d store (%d B in), %d load (%d B out), %d probe, %d extend, %d delete\n",
			m.Allocates, m.Stores, m.BytesIn, m.Loads, m.BytesOut, m.Probes, m.Extends, m.Deletes)
		fmt.Printf("health: %d errors, %d cap violations, %d reaped, %d restored, %d connections\n",
			m.Errors, m.Violations, m.Reaped, m.Restores, m.Connects)
	}
	return nil
}

// cmdMetrics fetches a depot's full operation-counter snapshot over the
// wire METRICS verb, in either a human listing or Prometheus text format.
func cmdMetrics(args []string) error {
	c := newFlags("metrics")
	prom := c.fs.Bool("prom", false, "print in Prometheus text exposition format")
	c.fs.Parse(args)
	if c.fs.NArg() != 1 {
		return fmt.Errorf("metrics wants exactly one depot address")
	}
	addr := c.fs.Arg(0)
	t, err := c.tools()
	if err != nil {
		return err
	}
	m, err := t.IBP.Metrics(addr)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		v    int64
	}{
		{"allocates", m.Allocates}, {"stores", m.Stores}, {"loads", m.Loads},
		{"probes", m.Probes}, {"extends", m.Extends}, {"deletes", m.Deletes},
		{"bytes_in", m.BytesIn}, {"bytes_out", m.BytesOut},
		{"errors", m.Errors}, {"reaped", m.Reaped}, {"connects", m.Connects},
		{"restores", m.Restores}, {"cap_violations", m.Violations},
	}
	if *prom {
		ms := make([]obs.Metric, len(rows))
		for i, r := range rows {
			ms[i] = obs.Metric{
				Name: "ibp_depot_" + r.name + "_total", Type: "counter",
				Help:  "Depot counter " + r.name + " (fetched via METRICS).",
				Value: float64(r.v),
			}
		}
		var sb strings.Builder
		obs.WriteMetrics(&sb, ms)
		fmt.Print(sb.String())
		return nil
	}
	fmt.Printf("depot %s counters:\n", addr)
	for _, r := range rows {
		fmt.Printf("  %-14s %d\n", r.name, r.v)
	}
	return nil
}

// cmdSlo renders SLO status. With a metrics address it fetches that
// daemon's /slo endpoint (an ibp-depot or stackmon metrics listener);
// without one it renders this invocation's local engine — mostly useful
// to inspect the declared objectives and burn-rate alert rules.
func cmdSlo(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit raw status JSON instead of the rendered report")
	fs.Parse(args)
	if fs.NArg() > 1 {
		return fmt.Errorf("slo wants at most one metrics address (host:port)")
	}
	st := sloEngine.Snapshot()
	if fs.NArg() == 1 {
		url := fs.Arg(0)
		if !strings.Contains(url, "://") {
			url = "http://" + url + "/slo"
		}
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		st = slo.Status{}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return fmt.Errorf("parsing %s: %w", url, err)
		}
	}
	if *asJSON {
		b, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(slo.Render(st))
	return nil
}
