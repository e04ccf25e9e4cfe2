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
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/registry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:6767", "address to listen on")
		ttl      = flag.Duration("ttl", 5*time.Minute, "depot liveness window (0 = never expire)")
		poll     = flag.Duration("poll", 0, "refresh depot capacities via STATUS at this interval (0 = off)")
		replicas = flag.String("replicas", "", "comma-separated replica group membership (including this member); empty = this server alone")
		viewSeq  = flag.Int64("view-seq", 1, "view sequence number of the static -replicas membership")
		shards   = flag.Int("shards", registry.DefaultShards, "exNode directory shard count (must match across the group)")
	)
	dm := daemon.New("lbone-server")
	dm.SurfaceFlags(flag.CommandLine, "metrics-listen", "", "serve /metrics and /healthz over HTTP on this address (e.g. :9767; empty = off)")
	dm.LogFlag(flag.CommandLine)
	flag.Parse()
	dm.Start()
	logger := dm.Logger
	s, rep, err := registry.Serve(*listen, registry.Config{
		Members: lbone.SplitAddrs(*replicas),
		Seq:     *viewSeq,
		Shards:  *shards,
		TTL:     *ttl,
		Logger:  logger,
	})
	if err != nil {
		dm.Fatal("serve", err)
	}
	v := rep.View()
	logger.Info("listening", "addr", s.Addr(), "ttl", *ttl)
	logger.Info("replica group", "seq", v.Seq, "members", len(v.Members), "shards", v.Shards)

	// Self-register the control endpoint in the group's control table, so
	// the obsd aggregator scrapes the registry tier alongside the depots.
	// Never deregistered: the entry outlives this member in its peers'
	// tables by at most the TTL, and shutdown stays immediate.
	self := registry.NewQuorumClient(strings.Join(v.Members, ","))
	if _, err := dm.ServeControl(self, s.Surface(), lbone.ControlInfo{Component: "lbone-server", Name: s.Addr()},
		*ttl/2, nil); err != nil {
		dm.Fatal("metrics listener", err)
	}
	if *poll > 0 {
		client := ibp.NewClient()
		defer client.Close()
		p := s.StartPoller(client, *poll)
		defer p.Stop()
		logger.Info("polling depot capacities", "interval", *poll)
	}

	<-dm.Stop
	if err := s.Close(); err != nil {
		dm.Fatal("close", err)
	}
}
