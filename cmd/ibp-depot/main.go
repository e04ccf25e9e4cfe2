// Command ibp-depot runs an IBP depot daemon: it inserts local storage
// into the network as time-limited, append-only byte arrays addressed by
// capabilities (paper §2.1).
//
// Usage:
//
//	ibp-depot -listen :6714 -capacity 1073741824 -dir /var/ibp \
//	          -secret-file /etc/ibp.secret -lbone host:6767 -name UTK1 -site UTK
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/depot"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/registry"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:6714", "address to listen on")
		advertised  = flag.String("advertised", "", "address minted into capabilities (default: listen address)")
		capacity    = flag.Int64("capacity", 1<<30, "total bytes to serve")
		maxDuration = flag.Duration("max-duration", 30*24*time.Hour, "longest allocation lifetime granted")
		dir         = flag.String("dir", "", "directory for disk-backed storage (required for -backend file|pack)")
		backendKind = flag.String("backend", "", "storage backend: memory, file, or pack (default: file when -dir is set, else memory)")
		bundleCap   = flag.Int64("bundle-cap", depot.DefaultBundleCap, "pack backend: max reserved bytes per bundle file")
		secretFile  = flag.String("secret-file", "", "file holding the capability-signing secret (default: random per run)")
		lboneAddr   = flag.String("lbone", "", "L-Bone server, or comma-separated replica group, to register with (optional)")
		name        = flag.String("name", "depot", "depot display name for the L-Bone")
		site        = flag.String("site", "UTK", "site name for proximity resolution (see internal/geo)")
		heartbeat   = flag.Duration("heartbeat", time.Minute, "L-Bone re-registration interval")
		reapEvery   = flag.Duration("reap", time.Minute, "expired-allocation sweep interval")
		pmDir       = flag.String("postmortem-dir", "", "write panic postmortem bundles to this directory (empty = keep in memory only)")
	)
	dm := daemon.New("ibp-depot")
	dm.SurfaceFlags(flag.CommandLine, "metrics-listen", "", "serve /metrics, /healthz, /trace/<id>, and /postmortem/<trace> over HTTP on this address (e.g. :9714; empty = off)")
	dm.LogFlag(flag.CommandLine)
	flag.Parse()
	dm.Start()
	logger, fatal := dm.Logger, dm.Fatal

	secret, err := loadSecret(*secretFile, logger)
	if err != nil {
		fatal("loading secret", err)
	}
	cfg := depot.Config{
		Advertised:    *advertised,
		Secret:        secret,
		Capacity:      *capacity,
		MaxDuration:   *maxDuration,
		Logger:        logger,
		Recorder:      dm.Recorder,
		PostmortemDir: *pmDir,
	}
	kind := *backendKind
	if kind == "" {
		if *dir != "" {
			kind = "file"
		} else {
			kind = "memory"
		}
	}
	switch kind {
	case "memory":
		// depot.Serve defaults to the in-memory backend.
	case "file":
		if *dir == "" {
			fatal("backend", fmt.Errorf("-backend file requires -dir"))
		}
		backend, err := depot.NewFileBackend(*dir)
		if err != nil {
			fatal("opening file backend", err)
		}
		cfg.Backend = backend
	case "pack":
		if *dir == "" {
			fatal("backend", fmt.Errorf("-backend pack requires -dir"))
		}
		backend, err := depot.NewPackBackend(*dir, *bundleCap)
		if err != nil {
			fatal("opening pack backend", err)
		}
		cfg.Backend = backend
		defer backend.Close()
	default:
		fatal("backend", fmt.Errorf("unknown backend %q (want memory, file, or pack)", kind))
	}
	d, err := depot.Serve(*listen, cfg)
	if err != nil {
		fatal("serve", err)
	}
	logger.Info("serving", "capacity_bytes", *capacity, "addr", d.Addr(), "advertised", d.Advertised())

	// Periodic expired-allocation sweep.
	go func() {
		t := time.NewTicker(*reapEvery)
		defer t.Stop()
		for range t.C {
			if n := d.ReapExpired(); n > 0 {
				logger.Info("reaped expired allocations", "n", n)
			}
		}
	}()

	// Optional L-Bone registration, kept alive every -heartbeat and taken
	// back on shutdown.
	var qc *registry.QuorumClient
	if *lboneAddr != "" {
		siteInfo, ok := geo.LookupSite(*site)
		if !ok {
			fatal("unknown site", fmt.Errorf("%q", *site))
		}
		qc = registry.NewQuorumClient(*lboneAddr)
		err := qc.AnnounceDepot(lbone.DepotInfo{
			Addr:        d.Advertised(),
			Name:        *name,
			Site:        siteInfo.Name,
			Loc:         siteInfo.Loc,
			Capacity:    *capacity,
			MaxDuration: *maxDuration,
		}, *heartbeat, logger, dm.Stop)
		if err != nil {
			fatal("registering with L-Bone", err)
		}
		logger.Info("registered with L-Bone", "lbone", *lboneAddr, "name", *name, "site", siteInfo.Name)
	}
	// The control endpoint is announced too, so the obsd aggregator
	// discovers this depot's scrape surface through the same registry.
	if _, err := dm.ServeControl(qc, d.Surface(), lbone.ControlInfo{Component: "ibp-depot", Name: *name},
		*heartbeat, dm.Stop); err != nil {
		fatal("metrics listener", err)
	}

	<-dm.Stop
	if qc != nil {
		qc.Close()
	}
	if err := d.Close(); err != nil {
		fatal("close", err)
	}
}

// loadSecret reads the signing secret, generating an ephemeral one when no
// file is configured (capabilities then die with the process, which is
// fine for testing).
func loadSecret(path string, logger *slog.Logger) ([]byte, error) {
	if path == "" {
		key, err := ibp.NewKey()
		if err != nil {
			return nil, err
		}
		logger.Warn("using an ephemeral secret; capabilities will not survive restarts")
		return []byte(key), nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading secret: %w", err)
	}
	if len(b) < 16 {
		return nil, fmt.Errorf("secret in %s is too short (%d bytes, want >= 16)", path, len(b))
	}
	return b, nil
}
