// Command lbone-server runs a Logistical Backbone registry: depots
// register themselves, clients query for depots by capacity, duration and
// proximity (paper §2.2).
//
// Usage:
//
//	lbone-server -listen :6767 -ttl 5m
//
// The server is always one member of a replica group (DESIGN §9): beside
// the classic single-registry protocol it serves the quorum verbs —
// view-stamped registration, depot queries and the sharded exNode
// directory. Without -replicas the group is the server alone, a view of
// one; with it the server installs the listed view (every member runs
// with the same -replicas, -view-seq and -shards values). Clients cannot
// tell the two apart except by the size of the view.
//
//	lbone-server -listen :6767 -replicas host1:6767,host2:6767,host3:6767
package main

import (
	"flag"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:6767", "address to listen on")
		ttl         = flag.Duration("ttl", 5*time.Minute, "depot liveness window (0 = never expire)")
		poll        = flag.Duration("poll", 0, "refresh depot capacities via STATUS at this interval (0 = off)")
		metricsAddr = flag.String("metrics-listen", "", "serve /metrics and /healthz over HTTP on this address (e.g. :9767; empty = off)")
		pprofOn     = flag.Bool("pprof", false, "also serve /debug/pprof on the metrics listener")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
		replicas    = flag.String("replicas", "", "comma-separated replica group membership (including this member); empty = this server alone")
		viewSeq     = flag.Int64("view-seq", 1, "view sequence number of the static -replicas membership")
		shards      = flag.Int("shards", registry.DefaultShards, "exNode directory shard count (must match across the group)")
	)
	flag.Parse()

	logger := obs.NewLogger(obs.LogConfig{JSON: *logJSON, Component: "lbone-server"})
	s, rep, err := registry.Serve(*listen, registry.Config{
		Members: lbone.SplitAddrs(*replicas),
		Seq:     *viewSeq,
		Shards:  *shards,
		TTL:     *ttl,
		Logger:  logger,
	})
	if err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	v := rep.View()
	logger.Info("listening", "addr", s.Addr(), "ttl", *ttl)
	logger.Info("replica group", "seq", v.Seq, "members", len(v.Members), "shards", v.Shards)

	if *metricsAddr != "" {
		// Self-register the control endpoint in the group's control table,
		// so the obsd aggregator scrapes the registry tier alongside the
		// depots. Never deregistered: the entry outlives this member in its
		// peers' tables by at most the TTL, and shutdown stays immediate.
		self := registry.NewQuorumClient(strings.Join(v.Members, ","))
		_, err := registry.ServeControl(self, s.ObsMux(), *metricsAddr, *pprofOn,
			lbone.ControlInfo{Component: "lbone-server", Name: s.Addr()}, *ttl/2, logger, nil)
		if err != nil {
			logger.Error("metrics listener", "err", err)
			os.Exit(1)
		}
	}
	if *poll > 0 {
		p := s.StartPoller(ibp.NewClient(), *poll)
		defer p.Stop()
		logger.Info("polling depot capacities", "interval", *poll)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	if err := s.Close(); err != nil {
		logger.Error("close", "err", err)
		os.Exit(1)
	}
}
