package registry

import (
	"log/slog"
	"time"

	"repro/internal/lbone"
	"repro/internal/vclock"
)

// Config parameterizes one replica of the replicated registry.
type Config struct {
	// Members is the static view's replica address list (including this
	// replica's public address). Empty means a lone server: a one-member
	// view of the address Serve binds.
	Members []string
	// Seq is the view sequence number (default 1).
	Seq int64
	// Shards is the exNode directory shard count (default DefaultShards).
	// Every member must agree.
	Shards int
	// TTL is the depot liveness window, as for a plain L-Bone server.
	TTL time.Duration
	// Clock drives liveness and stamps (default real).
	Clock vclock.Clock
	// Logger receives structured diagnostics.
	Logger *slog.Logger
}

// Serve starts one replica: a full L-Bone server on addr (plain REGISTER
// / QUERY verbs included, DESIGN §9.5) with the quorum verbs mounted on
// its extension hook. A lone lbone-server is the same thing with a view
// of one. Close the returned server to stop the replica.
func Serve(addr string, cfg Config) (*lbone.Server, *Replica, error) {
	if cfg.Seq == 0 {
		cfg.Seq = 1
	}
	rep, err := NewReplica(View{Seq: cfg.Seq, Members: cfg.Members, Shards: cfg.Shards},
		cfg.Clock, cfg.Logger)
	if err != nil {
		return nil, nil, err
	}
	srv, err := lbone.ServeRegistry(addr, lbone.ServerConfig{
		TTL:          cfg.TTL,
		Clock:        cfg.Clock,
		Logger:       cfg.Logger,
		Extension:    rep.Handle,
		ExtraMetrics: rep.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	// Connections accepted before Bind land in the brief UNAVAILABLE
	// window; quorum clients treat that replica as down and retry.
	rep.Bind(srv)
	return srv, rep, nil
}
