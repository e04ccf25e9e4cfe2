package registry

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Quorum protocol verbs, mounted on the L-Bone server's Extension hook
// beside the plain single-registry verbs. V* verbs are the view-stamped
// replicated registry; D* verbs are the sharded exNode directory.
const (
	opView        = "VIEW"
	opVRegister   = "VREGISTER"
	opVDeregister = "VDEREGISTER"
	opVQuery      = "VQUERY"
	opDirPut      = "DPUT"
	opDirGet      = "DGET"
	opDirList     = "DLIST"
)

// ReplicaStats counts quorum traffic for the registry_* metrics.
type ReplicaStats struct {
	ViewRequests atomic.Int64 // VIEW fetches served
	QuorumWrites atomic.Int64 // VREGISTER+VDEREGISTER applied
	QuorumReads  atomic.Int64 // VQUERY resolutions served
	DirPuts      atomic.Int64 // directory entries written
	DirGets      atomic.Int64 // directory reads served
	DirLists     atomic.Int64 // directory listings served
	StaleViews   atomic.Int64 // requests rejected with STALE_VIEW
	Conflicts    atomic.Int64 // directory writes rejected with CONFLICT
}

// dirEntry is one versioned exNode blob.
type dirEntry struct {
	Version int64
	Blob    []byte
}

// logRec is one applied directory operation; the per-shard log is what a
// joining replica would replay during reconfiguration catch-up.
type logRec struct {
	LSN     int64
	Op      string // "put"
	Name    string
	Version int64
}

// shard is one partition of the exNode directory: its entries plus the
// replicated log of operations that produced them.
type shard struct {
	entries map[string]dirEntry
	log     []logRec
	lsn     int64
}

// Replica is one member of the replicated registry group. It owns the
// directory shards directly and reaches the depot table through the
// L-Bone server it is bound to, so plain REGISTER traffic and quorum
// VREGISTER traffic land in one table.
type Replica struct {
	mu     sync.Mutex
	view   View
	shards []*shard
	srv    *lbone.Server
	clock  vclock.Clock
	logger *slog.Logger
	stats  ReplicaStats
}

// NewReplica builds a replica for the given static view. A view with no
// members is a lone replica: its one member is its own address, which
// Bind fills in once the server is listening.
func NewReplica(view View, clock vclock.Clock, logger *slog.Logger) (*Replica, error) {
	if view.Shards == 0 {
		view.Shards = DefaultShards
	}
	view.Members = NormalizeMembers(view.Members)
	check := view
	if len(check.Members) == 0 {
		check.Members = []string{"self"}
	}
	if err := check.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = vclock.Real()
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	r := &Replica{view: view, clock: clock, logger: logger}
	r.shards = make([]*shard, view.Shards)
	for i := range r.shards {
		r.shards[i] = &shard{entries: map[string]dirEntry{}}
	}
	return r, nil
}

// Bind attaches the L-Bone server whose depot table this replica serves.
// Until bound, quorum verbs answer UNAVAILABLE (the window between
// ServeRegistry accepting connections and Serve finishing wiring). A
// lone replica learns its one member here: the server's bound address,
// with a wildcard host rewritten to one peers can dial.
func (r *Replica) Bind(srv *lbone.Server) {
	r.mu.Lock()
	r.srv = srv
	if len(r.view.Members) == 0 {
		r.view.Members = []string{lbone.AdvertisedControlAddr(srv.Addr())}
	}
	r.mu.Unlock()
}

// View returns the installed view.
func (r *Replica) View() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.view
	v.Members = append([]string(nil), v.Members...)
	return v
}

// Stats exposes the live counters.
func (r *Replica) Stats() *ReplicaStats { return &r.stats }

// Reconfigure is the dynamic-membership hook: it installs a successor
// view with a higher sequence number. Today it only supports membership
// changes that keep the shard count — state transfer (replaying shard
// logs to joining members, freestore's viewgenerator handshake) is the
// next arc; until then callers are expected to bring joiners up to date
// out of band before installing the view.
func (r *Replica) Reconfigure(v View) error {
	v.Members = NormalizeMembers(v.Members)
	if err := v.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.Seq <= r.view.Seq {
		return fmt.Errorf("registry: reconfigure seq %d not newer than installed %d", v.Seq, r.view.Seq)
	}
	if v.Shards != r.view.Shards {
		return fmt.Errorf("registry: reconfigure cannot change shard count %d -> %d", r.view.Shards, v.Shards)
	}
	r.logger.Info("registry view installed", "seq", v.Seq, "members", len(v.Members))
	r.view = v
	return nil
}

// Handle implements lbone.ServerConfig.Extension: it claims the quorum
// verbs and leaves everything else to the core dispatch.
func (r *Replica) Handle(conn *wire.Conn, op string, args []string) (bool, error) {
	switch op {
	case opView, opVRegister, opVDeregister, opVQuery,
		opDirPut, opDirGet, opDirList:
	default:
		return false, nil
	}
	r.mu.Lock()
	bound := r.srv != nil
	r.mu.Unlock()
	if !bound {
		return true, conn.WriteErr(wire.CodeUnavailable, "replica still binding")
	}
	switch op {
	case opView:
		return true, r.handleView(conn)
	case opVRegister:
		return true, r.handleVRegister(conn, args)
	case opVDeregister:
		return true, r.handleVDeregister(conn, args)
	case opVQuery:
		return true, r.handleVQuery(conn, args)
	case opDirPut:
		return true, r.handleDirPut(conn, args)
	case opDirGet:
		return true, r.handleDirGet(conn, args)
	default:
		return true, r.handleDirList(conn, args)
	}
}

// checkSeq enforces the view stamp. Either direction of mismatch is
// STALE_VIEW: an older client must refresh, and a client ahead of us
// means *we* missed a reconfiguration — it must not treat our answer as
// part of its quorum.
func (r *Replica) checkSeq(conn *wire.Conn, tok string) (bool, error) {
	seq, err := wire.ParseInt("viewseq", tok)
	if err != nil {
		return false, conn.WriteErr(wire.CodeBadRequest, "bad view seq %q", tok)
	}
	r.mu.Lock()
	have := r.view.Seq
	r.mu.Unlock()
	if seq != have {
		r.stats.StaleViews.Add(1)
		return false, conn.WriteErr(wire.CodeStaleView, "request view %d, installed %d", seq, have)
	}
	return true, nil
}

// VIEW → OK <seq> <shards> <n>, then n MEMBER lines.
func (r *Replica) handleView(conn *wire.Conn) error {
	r.stats.ViewRequests.Add(1)
	v := r.View()
	if err := conn.WriteOK(wire.Itoa(v.Seq), wire.Itoa(int64(v.Shards)), wire.Itoa(int64(len(v.Members)))); err != nil {
		return err
	}
	for _, m := range v.Members {
		if err := conn.WriteLine("MEMBER", m); err != nil {
			return err
		}
	}
	return nil
}

// VREGISTER <seq> <addr> <name> <site> <loc> <cap> <durSec> <lastSeenNano>
func (r *Replica) handleVRegister(conn *wire.Conn, args []string) error {
	if len(args) != 8 {
		return conn.WriteErr(wire.CodeBadRequest, "VREGISTER wants 8 fields, got %d", len(args))
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	d, err := lbone.ParseDepotTokens(args[1:7])
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "bad depot record: %v", err)
	}
	nanos, err := wire.ParseInt("lastseen", args[7])
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "bad lastseen %q", args[7])
	}
	d.LastSeen = time.Unix(0, nanos)
	r.stats.QuorumWrites.Add(1)
	r.srv.WithRegistry(func(reg *lbone.Registry) { reg.Restore(d) })
	return conn.WriteOK()
}

// VDEREGISTER <seq> <addr>
func (r *Replica) handleVDeregister(conn *wire.Conn, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "VDEREGISTER wants <seq> <addr>")
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	r.stats.QuorumWrites.Add(1)
	r.srv.WithRegistry(func(reg *lbone.Registry) { reg.Deregister(args[1]) })
	return conn.WriteOK()
}

// VQUERY <seq> <minCap> <minDurSec> <lat,lon|-> <max>
// → OK <n>, then n RDEPOT lines: the core DEPOT tokens plus the entry's
// LastSeen stamp, which quorum readers merge freshest-wins.
func (r *Replica) handleVQuery(conn *wire.Conn, args []string) error {
	if len(args) != 5 {
		return conn.WriteErr(wire.CodeBadRequest, "VQUERY wants 5 fields, got %d", len(args))
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	req, perr := lbone.ParseQueryArgs(args[1:])
	if perr != nil {
		return conn.WriteErr(wire.CodeBadRequest, "VQUERY: %v", perr)
	}
	r.stats.QuorumReads.Add(1)
	var res []lbone.DepotInfo
	r.srv.WithRegistry(func(reg *lbone.Registry) { res = reg.Query(req) })
	if err := conn.WriteOK(wire.Itoa(int64(len(res)))); err != nil {
		return err
	}
	for _, d := range res {
		toks := append([]string{"RDEPOT"}, lbone.DepotTokens(d)...)
		toks = append(toks, wire.Itoa(d.LastSeen.UnixNano()))
		if err := conn.WriteLine(toks...); err != nil {
			return err
		}
	}
	return nil
}

// DPUT <seq> <shard> <qname> <version> <len>, then the exNode blob.
// version must be strictly newer than the stored one; equal or older is
// CONFLICT (carrying the stored version), which is both the optimistic
// concurrency control for writers and what lets read repair re-send the
// freshest version to a lagging replica without regressing a fresher one.
func (r *Replica) handleDirPut(conn *wire.Conn, args []string) error {
	if len(args) != 5 {
		return conn.WriteErr(wire.CodeBadRequest, "DPUT wants 5 fields, got %d", len(args))
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	sh, name, err := r.shardAndName(args[1], args[2])
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "%v", err)
	}
	version, err := wire.ParseInt("version", args[3])
	if err != nil || version <= 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad version %q", args[3])
	}
	n, err := wire.ParseInt("len", args[4])
	if err != nil || n < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[4])
	}
	blob, err := conn.ReadBlob(n)
	if err != nil {
		return err // connection unframed; drop it
	}
	r.mu.Lock()
	cur, exists := sh.entries[name]
	if exists && version <= cur.Version {
		have := cur.Version
		r.mu.Unlock()
		r.stats.Conflicts.Add(1)
		return conn.WriteErr(wire.CodeConflict, "have version %d", have)
	}
	sh.lsn++
	lsn := sh.lsn
	sh.entries[name] = dirEntry{Version: version, Blob: blob}
	sh.log = append(sh.log, logRec{LSN: lsn, Op: "put", Name: name, Version: version})
	r.mu.Unlock()
	r.stats.DirPuts.Add(1)
	return conn.WriteOK(wire.Itoa(lsn))
}

// DGET <seq> <shard> <qname> → OK <version> <len>, then the blob.
func (r *Replica) handleDirGet(conn *wire.Conn, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "DGET wants 3 fields, got %d", len(args))
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	sh, name, err := r.shardAndName(args[1], args[2])
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "%v", err)
	}
	r.mu.Lock()
	e, exists := sh.entries[name]
	r.mu.Unlock()
	r.stats.DirGets.Add(1)
	if !exists {
		return conn.WriteErr(wire.CodeNotFound, "no exnode %s", wire.Quote(name))
	}
	// WriteOK's line (registry replies arm no trailer) and the blob, one flush.
	if err := conn.WriteLineBuffered("OK", wire.Itoa(e.Version), wire.Itoa(int64(len(e.Blob)))); err != nil {
		return err
	}
	return conn.WriteBlob(e.Blob)
}

// DLIST <seq> <shard> → OK <n>, then n "ENTRY <qname> <version>" lines.
func (r *Replica) handleDirList(conn *wire.Conn, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "DLIST wants 2 fields, got %d", len(args))
	}
	ok, err := r.checkSeq(conn, args[0])
	if !ok {
		return err
	}
	shardIdx, err := wire.ParseInt("shard", args[1])
	if err != nil || shardIdx < 0 || int(shardIdx) >= len(r.shards) {
		return conn.WriteErr(wire.CodeBadRequest, "bad shard %q", args[1])
	}
	sh := r.shards[shardIdx]
	r.mu.Lock()
	type ent struct {
		name    string
		version int64
	}
	ents := make([]ent, 0, len(sh.entries))
	for name, e := range sh.entries {
		ents = append(ents, ent{name, e.Version})
	}
	r.mu.Unlock()
	r.stats.DirLists.Add(1)
	if err := conn.WriteOK(wire.Itoa(int64(len(ents)))); err != nil {
		return err
	}
	for _, e := range ents {
		if err := conn.WriteLine("ENTRY", wire.Quote(e.name), wire.Itoa(e.version)); err != nil {
			return err
		}
	}
	return nil
}

// shardAndName validates the shard index and unquotes the name, checking
// the client's shard placement against ShardFor so a buggy client cannot
// scatter one name across shards.
func (r *Replica) shardAndName(shardTok, nameTok string) (*shard, string, error) {
	shardIdx, err := wire.ParseInt("shard", shardTok)
	if err != nil || shardIdx < 0 || int(shardIdx) >= len(r.shards) {
		return nil, "", fmt.Errorf("bad shard %q", shardTok)
	}
	name, err := wire.Unquote(nameTok)
	if err != nil || name == "" {
		return nil, "", fmt.Errorf("bad name %q", nameTok)
	}
	if want := ShardFor(name, len(r.shards)); want != int(shardIdx) {
		return nil, "", fmt.Errorf("name %s hashes to shard %d, not %d", nameTok, want, shardIdx)
	}
	return r.shards[shardIdx], name, nil
}

// Metrics renders registry_* samples for the shared /metrics scrape.
func (r *Replica) Metrics() []obs.Metric {
	r.mu.Lock()
	seq := r.view.Seq
	members := len(r.view.Members)
	entries, logLen := 0, 0
	for _, sh := range r.shards {
		entries += len(sh.entries)
		logLen += len(sh.log)
	}
	r.mu.Unlock()

	return []obs.Metric{
		obs.Counter("registry_view_requests_total", "VIEW fetches served.", r.stats.ViewRequests.Load()),
		obs.Counter("registry_quorum_writes_total", "View-stamped registry writes applied.", r.stats.QuorumWrites.Load()),
		obs.Counter("registry_quorum_reads_total", "View-stamped registry reads served.", r.stats.QuorumReads.Load()),
		obs.Counter("registry_dir_puts_total", "Directory entries written.", r.stats.DirPuts.Load()),
		obs.Counter("registry_dir_gets_total", "Directory reads served.", r.stats.DirGets.Load()),
		obs.Counter("registry_dir_lists_total", "Directory listings served.", r.stats.DirLists.Load()),
		obs.Counter("registry_stale_views_total", "Requests rejected with STALE_VIEW.", r.stats.StaleViews.Load()),
		obs.Counter("registry_dir_conflicts_total", "Directory writes rejected with CONFLICT.", r.stats.Conflicts.Load()),
		obs.Gauge("registry_view_seq", "Installed view sequence number.", seq),
		obs.Gauge("registry_view_members", "Members in the installed view.", members),
		obs.Gauge("registry_dir_entries", "ExNode directory entries held.", entries),
		obs.Gauge("registry_dir_log_len", "Replicated-log records across shards.", logLen),
	}
}
