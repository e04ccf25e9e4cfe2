package registry

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lbone"
	"repro/internal/netx"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// ErrNotFound reports a directory name with no entry in the answer a read
// settled on.
var ErrNotFound = errors.New("registry: exnode not found")

// ClientStats counts quorum-client outcomes for registry_client_*
// metrics and the SLO feed.
type ClientStats struct {
	Ops          atomic.Int64 // quorum operations attempted
	ReplicaFails atomic.Int64 // per-replica attempts that failed (tolerated when quorum held)
	Failovers    atomic.Int64 // ops that succeeded despite >=1 replica failure
	StaleRetries atomic.Int64 // ops retried after a STALE_VIEW refresh
	MajorityLost atomic.Int64 // ops failed fast with ErrMajorityLost
	Repairs      atomic.Int64 // read-repair writes pushed to lagging replicas
	Dials        atomic.Int64 // connections dialed to replicas (attempts, failed ones included)
	Reused       atomic.Int64 // exchanges that rode a parked session instead of a dial
	SnapshotHits atomic.Int64 // Query calls answered from the depot-table snapshot (no quorum op ran)
}

// QuorumClient drives majority-quorum operations against a replicated
// registry view. Safe for concurrent use. Each replica exchange rides a
// session — a framed connection kept parked between operations (see
// quorumPass) — so a steady client dials each replica once, not once per
// verb. Close releases the parked sessions; a client that is never
// closed only leaves them to the idle-age limit and the replicas' own
// shutdown.
//
// Writes go to every member and need a strict majority of acks; reads ask
// a strict majority first and merge its answers (a directory read needs a
// majority that agrees, see GetExNode). The merged depot table is kept for
// depotSnapshotTTL and answers Query in that window (see depotSnapshot);
// every other read visits the replicas. A STALE_VIEW rejection refreshes
// the cached view (highest sequence any reachable replica reports) and
// retries the operation once. Fewer than a majority of answers is
// ErrMajorityLost — a *detected* failure (DESIGN §9): the client fails
// fast rather than serving a minority's possibly-stale world view.
type QuorumClient struct {
	seeds       []string
	dialer      netx.Dialer
	clock       vclock.Clock
	dialTimeout time.Duration
	opTimeout   time.Duration
	// observer, when set, receives every per-replica attempt outcome
	// (the replica-health SLI feed).
	observer func(replica string, ok bool)

	mu          sync.Mutex
	view        View
	haveView    bool
	snapshot    *depotSnapshot // nil: the next Query reads a majority
	snapshotGen int64          // bumped by every invalidation

	sessions   *wire.Pool
	announcing sync.WaitGroup // background announce loops (announce.go)
	stats      ClientStats
}

// depotSnapshotTTL is how long Query answers from the last majority read
// of the depot table. Which depots exist moves on the depots' announce
// interval (a minute by default, this is a sixtieth of it) and the
// servers' five-minute liveness window, so a second adds nothing a reader
// of that table could not already see — and a constant, not an option:
// every caller in the repo wants the same answer.
const depotSnapshotTTL = time.Second

// depotSnapshot is one majority-merged depot table and the client-clock
// time its read began. The table is frozen once published — Query only
// reads it, and lbone.Registry.Query returns a fresh slice per call — so
// any number of callers may use it without a lock. It is dropped by the
// client's own RegisterDepot/DeregisterDepot (read-your-writes), by a view
// change, and by a refresh that misses its majority; it is never served
// once depotSnapshotTTL old.
type depotSnapshot struct {
	table *lbone.Registry
	read  time.Time
}

// maxIdleSessions caps the sessions parked per replica. An operation
// holds one session per member it is asking, so a client holds at most one
// session per replica per concurrent caller; callers beyond the cap
// still work, their sessions are just closed instead of parked.
const maxIdleSessions = 4

// QuorumOption configures a QuorumClient.
type QuorumOption func(*QuorumClient)

// WithDialer sets the dialer (default: system network).
func WithDialer(d netx.Dialer) QuorumOption { return func(c *QuorumClient) { c.dialer = d } }

// WithClock sets the deadline/stamp clock (default: real time).
func WithClock(ck vclock.Clock) QuorumOption { return func(c *QuorumClient) { c.clock = ck } }

// WithTimeouts sets dial and per-operation timeouts. These bound the
// fail-fast budget: a majority-loss verdict takes at most one dial
// timeout per unreachable member per pass (one operation timeout, once,
// for a member that vanished without closing a parked session).
func WithTimeouts(dial, op time.Duration) QuorumOption {
	return func(c *QuorumClient) { c.dialTimeout, c.opTimeout = dial, op }
}

// WithObserver installs a per-replica outcome hook (the
// slo.RegistryAvailability feed).
func WithObserver(f func(replica string, ok bool)) QuorumOption {
	return func(c *QuorumClient) { c.observer = f }
}

// NewQuorumClient builds a client bootstrapped from a comma-separated
// replica address list (any reachable member serves the view).
func NewQuorumClient(addrs string, opts ...QuorumOption) *QuorumClient {
	c := &QuorumClient{
		seeds:       lbone.SplitAddrs(addrs),
		dialer:      netx.System(),
		clock:       vclock.Real(),
		dialTimeout: 5 * time.Second,
		opTimeout:   15 * time.Second,
		sessions:    wire.NewPool(maxIdleSessions),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close waits for the client's announce loops to deregister — close their
// stop channels first — and drops the parked sessions. The client stays
// usable — later operations dial and hang up per exchange — so daemons
// call it last on their shutdown path.
func (c *QuorumClient) Close() error {
	c.announcing.Wait()
	c.sessions.Close()
	return nil
}

// Stats exposes the live counters.
func (c *QuorumClient) Stats() *ClientStats { return &c.stats }

func (c *QuorumClient) observe(replica string, ok bool) {
	if c.observer != nil {
		c.observer(replica, ok)
	}
}

func (c *QuorumClient) connect(addr string) (*wire.Conn, error) {
	c.stats.Dials.Add(1)
	raw, err := c.dialer.Dial("tcp", addr, c.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("registry: dial %s: %w", addr, err)
	}
	if err := netx.SetOpDeadline(raw, c.clock.Now(), c.opTimeout); err != nil {
		raw.Close()
		return nil, err
	}
	return wire.NewConn(raw), nil
}

// checkout returns a session to addr with the operation deadline set: a
// parked one that passes the idle check, else a fresh dial. A session
// whose replica closed it while it was parked (a restart, a shutdown) is
// discarded here, before any request is written to it.
func (c *QuorumClient) checkout(addr string) (*wire.Conn, error) {
	for conn := c.sessions.Get(addr); conn != nil; conn = c.sessions.Get(addr) {
		if conn.CheckIdle() == nil &&
			netx.SetOpDeadline(conn.NetConn(), c.clock.Now(), c.opTimeout) == nil {
			c.stats.Reused.Add(1)
			return conn, nil
		}
		conn.Close()
	}
	return c.connect(addr)
}

// sendTo writes op's request to addr on a checked-out session. It and
// recvFrom are every exchange's session rule: once a session is checked
// out its error is final — the request may have reached the replica — so
// the session is closed (a DPUT rejected early leaves its blob unread) and
// nothing is re-sent: a retried put never meets itself as a CONFLICT.
func (c *QuorumClient) sendTo(addr string, seq int64, op replicaOp) (*wire.Conn, error) {
	conn, err := c.checkout(addr)
	if err != nil {
		return nil, err
	}
	if err := op.send(conn, seq); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// recvFrom reads addr's reply to sendTo's request: a clean reply parks the
// session for the next operation, any error closes it.
func (c *QuorumClient) recvFrom(addr string, conn *wire.Conn, op replicaOp) error {
	if err := op.recv(conn, addr); err != nil {
		conn.Close()
		return err
	}
	c.sessions.Put(addr, conn)
	return nil
}

// exchange runs op against addr alone (a view fetch, a read repair).
func (c *QuorumClient) exchange(addr string, seq int64, op replicaOp) error {
	conn, err := c.sendTo(addr, seq, op)
	if err != nil {
		return err
	}
	return c.recvFrom(addr, conn, op)
}

// fetchView asks one replica for its installed view.
func (c *QuorumClient) fetchView(addr string) (v View, err error) {
	err = c.exchange(addr, 0, replicaOp{
		send: func(conn *wire.Conn, _ int64) error { return conn.WriteLine(opView) },
		recv: func(conn *wire.Conn, _ string) (err error) { v, err = readView(conn); return err },
	})
	return v, err
}

// readView reads one VIEW reply.
func readView(conn *wire.Conn) (View, error) {
	toks, err := conn.ReadStatus()
	if err != nil {
		return View{}, err
	}
	if len(toks) != 3 {
		return View{}, fmt.Errorf("registry: malformed VIEW response %v", toks)
	}
	seq, err := wire.ParseInt("seq", toks[0])
	if err != nil {
		return View{}, err
	}
	shards, err := wire.ParseInt("shards", toks[1])
	if err != nil {
		return View{}, err
	}
	n, err := wire.ParseInt("members", toks[2])
	if err != nil {
		return View{}, err
	}
	v := View{Seq: seq, Shards: int(shards)}
	for i := int64(0); i < n; i++ {
		line, err := conn.ReadLine()
		if err != nil {
			return View{}, err
		}
		if len(line) != 2 || line[0] != "MEMBER" {
			return View{}, fmt.Errorf("registry: malformed member line %v", line)
		}
		v.Members = append(v.Members, line[1])
	}
	if err := v.Validate(); err != nil {
		return View{}, err
	}
	return v, nil
}

// RefreshView polls the seed addresses and any cached members and
// installs the highest-sequence view reachable. It is called lazily on
// first use and after STALE_VIEW rejections.
func (c *QuorumClient) RefreshView() (View, error) {
	c.mu.Lock()
	candidates := append([]string(nil), c.seeds...)
	if c.haveView {
		candidates = append(candidates, c.view.Members...)
	}
	c.mu.Unlock()
	candidates = NormalizeMembers(candidates)
	if len(candidates) == 0 {
		return View{}, fmt.Errorf("%w: no replica addresses configured", lbone.ErrNoRegistry)
	}

	var best View
	var got bool
	var errs []error
	for _, addr := range candidates {
		v, err := c.fetchView(addr)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !got || v.Seq > best.Seq {
			best, got = v, true
		}
	}
	if !got {
		return View{}, fmt.Errorf("%w: view fetch: %w", lbone.ErrNoRegistry, errors.Join(errs...))
	}
	c.mu.Lock()
	if !c.haveView || best.Seq >= c.view.Seq {
		if c.haveView && best.Seq != c.view.Seq {
			c.dropSnapshotLocked() // another view's table
		}
		c.view, c.haveView = best, true
	}
	best = c.view
	c.mu.Unlock()
	return best, nil
}

// currentView returns the cached view, fetching it on first use.
func (c *QuorumClient) currentView() (View, error) {
	c.mu.Lock()
	if c.haveView {
		v := c.view
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	return c.RefreshView()
}

// replicaOp is one exchange against one member, in halves so a pass can
// have every request in flight before it reads a reply: send writes and
// flushes it, recv reads that member's reply (STALE_VIEW is a remote
// error). read marks a read; agree, when set, says whether at least quorum
// answers agree, after every wave that leaves a majority in hand.
type replicaOp struct {
	send  func(conn *wire.Conn, viewSeq int64) error
	recv  func(conn *wire.Conn, addr string) error
	read  bool
	agree func(quorum int) bool
}

// recvAck is the recv half of every request answered by a bare status.
func recvAck(conn *wire.Conn, _ string) error {
	_, err := conn.ReadStatus()
	return err
}

// quorumPass runs op against the view and reports acks, whether any member
// answered STALE_VIEW, and the per-replica errors. It works in waves on the
// caller's goroutine — send to every member of a wave, then read their
// replies in the same order — so the round trips overlap in the replicas'
// own handlers and no goroutine is started. A write's one wave is the whole
// view. A read's first is Quorum() members in view order; each later wave
// asks one next member per missing answer, or one when agree says no. A
// failed exchange (sendTo's rule) counts a replica failure.
func (c *QuorumClient) quorumPass(v View, op replicaOp) (acks int, stale bool, errs []error) {
	fail := func(addr string, err error) {
		if wire.IsRemote(err, wire.CodeStaleView) {
			stale = true
		}
		// A replica that answered — even with an application error —
		// is up; only transport-level failures mark it unavailable.
		c.observe(addr, wire.IsRemoteAny(err))
		c.stats.ReplicaFails.Add(1)
		errs = append(errs, fmt.Errorf("%s: %w", addr, err))
	}
	var held [5]*wire.Conn // a wave's sessions, send to receive; a 5-member view's without allocating
	want := v.Quorum()
	if !op.read {
		want = len(v.Members)
	}
	for next := 0; want > 0 && next < len(v.Members); {
		wave := v.Members[next:min(next+want, len(v.Members))]
		next += len(wave)
		conns := held[:0]
		for _, addr := range wave {
			conn, err := c.sendTo(addr, v.Seq, op)
			if err != nil {
				fail(addr, err)
			}
			conns = append(conns, conn)
		}
		for i, addr := range wave {
			if conns[i] == nil {
				continue
			}
			if err := c.recvFrom(addr, conns[i], op); err != nil {
				fail(addr, err)
				continue
			}
			c.observe(addr, true)
			acks++
		}
		if want = v.Quorum() - acks; want <= 0 && op.agree != nil && !op.agree(v.Quorum()) {
			want = 1
		}
	}
	return acks, stale, errs
}

// quorum drives op to a majority verdict: one pass, a view refresh and
// second pass if any member reported STALE_VIEW, then classification.
// Minority failures along a successful op are tolerated (counted, never
// surfaced); missing the majority is ErrMajorityLost.
func (c *QuorumClient) quorum(opName string, op replicaOp) error {
	c.stats.Ops.Add(1)
	v, err := c.currentView()
	if err != nil {
		c.stats.MajorityLost.Add(1)
		return fmt.Errorf("registry: %s: %w", opName, err)
	}
	acks, stale, errs := c.quorumPass(v, op)
	if acks < v.Quorum() && stale {
		c.stats.StaleRetries.Add(1)
		if v, err = c.RefreshView(); err != nil {
			c.stats.MajorityLost.Add(1)
			return fmt.Errorf("registry: %s: %w", opName, err)
		}
		acks, stale, errs = c.quorumPass(v, op)
		if acks < v.Quorum() && stale {
			return fmt.Errorf("registry: %s: %w: %w", opName, ErrStaleView, errors.Join(errs...))
		}
	}
	if acks >= v.Quorum() {
		if len(errs) > 0 {
			c.stats.Failovers.Add(1)
		}
		return nil
	}
	c.stats.MajorityLost.Add(1)
	return fmt.Errorf("registry: %s: %d/%d acks: %w: %w",
		opName, acks, v.Quorum(), ErrMajorityLost, errors.Join(errs...))
}

// ---- replicated depot registry ----

// ackOp is the replicaOp of a write that is one request line answered by
// a bare status. The V* verbs carry the view stamp as their first
// argument; the C* verbs predate views and go out as written.
func ackOp(stamped bool, verb string, args ...string) replicaOp {
	return replicaOp{recv: recvAck, send: func(conn *wire.Conn, seq int64) error {
		line := append(make([]string, 0, 2+len(args)), verb)
		if stamped {
			line = append(line, wire.Itoa(seq))
		}
		return conn.WriteLine(append(line, args...)...)
	}}
}

// RegisterDepot announces a depot through the quorum, stamping liveness
// with the client's clock so all replicas install the same LastSeen.
// Registering again is also how a depot refreshes its liveness (there is
// no quorum heartbeat: a restarted replica would answer it NOT_FOUND).
func (c *QuorumClient) RegisterDepot(d lbone.DepotInfo) error {
	defer c.dropSnapshot() // even a failed write may have reached a replica
	stamp := wire.Itoa(c.clock.Now().UnixNano())
	return c.quorum("register", ackOp(true, opVRegister, append(lbone.DepotTokens(d), stamp)...))
}

// DeregisterDepot removes a depot through the quorum.
func (c *QuorumClient) DeregisterDepot(addr string) error {
	defer c.dropSnapshot()
	return c.quorum("deregister", ackOp(true, opVDeregister, addr))
}

func (c *QuorumClient) dropSnapshot() {
	c.mu.Lock()
	c.dropSnapshotLocked()
	c.mu.Unlock()
}

// dropSnapshotLocked discards the snapshot and, by moving the generation,
// any table a Query in flight read before this point.
func (c *QuorumClient) dropSnapshotLocked() {
	c.snapshot = nil
	c.snapshotGen++
}

// Query implements core.DepotSource. Within depotSnapshotTTL of a majority
// read it filters, orders and caps that read's table locally — no
// exchange, no quorum operation, counted in SnapshotHits. Otherwise it
// reads the whole table from a majority (each answering replica returns
// its live entries; the merge keeps the freshest record per depot
// address), answers from the merge, and keeps it as the next snapshot. A
// read that misses its majority returns the detected error and leaves no
// snapshot behind.
func (c *QuorumClient) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	now := c.clock.Now()
	c.mu.Lock()
	snap, gen := c.snapshot, c.snapshotGen
	c.mu.Unlock()
	if snap != nil && now.Sub(snap.read) < depotSnapshotTTL {
		c.stats.SnapshotHits.Add(1)
		return snap.table.Query(req), nil
	}
	merged := lbone.NewRegistryClock(0, c.clock)
	err := c.quorum("query", replicaOp{read: true,
		// The whole live table: requirements are applied to the merge, so
		// one read answers every Requirements a caller brings within the
		// snapshot's lifetime.
		send: func(conn *wire.Conn, seq int64) error {
			return conn.WriteLine(opVQuery, wire.Itoa(seq), "0", "0", "-", "0")
		},
		recv: func(conn *wire.Conn, _ string) error {
			depots, err := readList(conn, "RDEPOT", 7, func(f []string) (lbone.DepotInfo, error) {
				d, err := lbone.ParseDepotTokens(f[:6])
				if err != nil {
					return d, err
				}
				nanos, err := wire.ParseInt("lastseen", f[6])
				d.LastSeen = time.Unix(0, nanos)
				return d, err
			})
			for _, d := range depots {
				merged.Restore(d)
			}
			return err
		},
	})
	c.mu.Lock()
	if err != nil {
		c.snapshot = nil
	} else if c.snapshotGen == gen { // else invalidated while we read: answer once, keep nothing
		c.snapshot = &depotSnapshot{table: merged, read: now}
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return merged.Query(req), nil
}

// readList reads a counted list response: "OK <n>", then n lines of tag
// followed by exactly fields tokens, which parse turns into one item. On
// error it returns no items, so a failed answer merges nothing.
func readList[T any](conn *wire.Conn, tag string, fields int, parse func(f []string) (T, error)) ([]T, error) {
	toks, err := conn.ReadStatus()
	if err != nil {
		return nil, err
	}
	if len(toks) != 1 {
		return nil, fmt.Errorf("registry: malformed %s list status %v", tag, toks)
	}
	n, err := wire.ParseInt("count", toks[0])
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, n)
	for i := int64(0); i < n; i++ {
		line, err := conn.ReadLine()
		if err != nil {
			return nil, err
		}
		if len(line) != 1+fields || line[0] != tag {
			return nil, fmt.Errorf("registry: malformed %s line %v", tag, line)
		}
		item, err := parse(line[1:])
		if err != nil {
			return nil, err
		}
		out = append(out, item)
	}
	return out, nil
}

// ---- sharded exNode directory ----

// dirRead is one replica's answer to a DGET: found or not, and at what
// version.
type dirRead struct {
	addr    string
	found   bool
	version int64
	blob    []byte
}

// settle returns the freshest of reads — highest version (NOT_FOUND is 0),
// then most votes among its blobs, then first answered — and whether at
// least quorum answers equal it. Version beats votes: replicas keep state
// in memory, so restarted members answer NOT_FOUND (or an old version) for
// a name the others hold and must not outvote the fresher answer.
func settle(reads []dirRead, quorum int) (best dirRead, ok bool) {
	votes := 0
	for i, r := range reads {
		same := 0
		for _, o := range reads {
			if o.found == r.found && o.version == r.version && bytes.Equal(o.blob, r.blob) {
				same++
			}
		}
		if i == 0 || r.version > best.version || r.version == best.version && same > votes {
			best, votes = r, same
		}
	}
	return best, votes >= quorum
}

// GetExNode returns the freshest answer (see settle) once a majority
// agrees on it; disagreement brings in the next member, until all have
// answered. Members read at an older (or no) version are repaired
// best-effort, so a replica that missed a write converges on a later read.
func (c *QuorumClient) GetExNode(name string) ([]byte, int64, error) {
	v, err := c.currentView()
	if err != nil {
		c.stats.MajorityLost.Add(1)
		return nil, 0, fmt.Errorf("registry: get: %w", err)
	}
	shard := ShardFor(name, v.Shards)
	var reads []dirRead
	best, seq := dirRead{}, v.Seq
	err = c.quorum("get", replicaOp{read: true,
		send: func(conn *wire.Conn, passSeq int64) error {
			if passSeq != seq { // a stale-view retry under a new view: its members vote afresh
				reads, seq = reads[:0], passSeq
			}
			return conn.WriteLine(opDirGet, wire.Itoa(passSeq), wire.Itoa(int64(shard)), wire.Quote(name))
		},
		recv: func(conn *wire.Conn, addr string) error {
			r, err := readDirGet(conn)
			if err != nil {
				return err
			}
			r.addr = addr
			// A stale-view retry may ask a member again: one vote each.
			reads = append(slices.DeleteFunc(reads, func(o dirRead) bool { return o.addr == addr }), r)
			return nil
		},
		// The last verdict is the final pass's, under that pass's view.
		agree: func(quorum int) (ok bool) { best, ok = settle(reads, quorum); return ok },
	})
	if err != nil {
		return nil, 0, err
	}
	if !best.found {
		return nil, 0, fmt.Errorf("registry: get %s: %w", name, ErrNotFound)
	}
	// Read repair: push the winner to replicas that answered with less.
	for _, r := range reads {
		if r.version < best.version && c.repairReplica(r.addr, seq, shard, name, best.version, best.blob) {
			c.stats.Repairs.Add(1)
		}
	}
	return best.blob, best.version, nil
}

// readDirGet reads one DGET reply; NOT_FOUND is an answer, not an error —
// the replica is alive and counted toward the read quorum.
func readDirGet(conn *wire.Conn) (dirRead, error) {
	toks, err := conn.ReadStatus()
	if wire.IsRemote(err, wire.CodeNotFound) {
		return dirRead{found: false}, nil
	}
	if err != nil {
		return dirRead{}, err
	}
	if len(toks) != 2 {
		return dirRead{}, fmt.Errorf("registry: malformed DGET status %v", toks)
	}
	version, err := wire.ParseInt("version", toks[0])
	if err != nil {
		return dirRead{}, err
	}
	n, err := wire.ParseInt("len", toks[1])
	if err != nil {
		return dirRead{}, err
	}
	blob, err := conn.ReadBlob(n)
	if err != nil {
		return dirRead{}, err
	}
	return dirRead{found: true, version: version, blob: blob}, nil
}

// repairReplica best-effort installs (version, blob) on one lagging
// replica; failures are ignored (the replica is repaired on a later read
// or write instead).
func (c *QuorumClient) repairReplica(addr string, seq int64, shard int, name string, version int64, blob []byte) bool {
	return c.exchange(addr, seq, replicaOp{recv: recvAck, send: func(conn *wire.Conn, seq int64) error {
		return sendPut(conn, seq, shard, name, version, blob)
	}}) == nil
}

// sendPut writes one DPUT request, line and blob in one flush.
func sendPut(conn *wire.Conn, seq int64, shard int, name string, version int64, blob []byte) error {
	err := conn.WriteLineBuffered(opDirPut, wire.Itoa(seq), wire.Itoa(int64(shard)),
		wire.Quote(name), wire.Itoa(version), wire.Itoa(int64(len(blob))))
	if err != nil {
		return err
	}
	return conn.WriteBlob(blob)
}

// PutExNode installs blob under name at version. version must be exactly
// one past the version a preceding read returned (0 for a fresh name);
// losing the optimistic-concurrency race is ErrVersionConflict — re-read
// and retry. Concurrency between two writers resolves last-writer-wins
// at the version level, which is the paper's exNode semantics: the
// directory stores whole-exNode snapshots, not merged deltas.
func (c *QuorumClient) PutExNode(name string, version int64, blob []byte) error {
	if version <= 0 {
		return fmt.Errorf("registry: put %s: version %d must be positive", name, version)
	}
	v, err := c.currentView()
	if err != nil {
		c.stats.MajorityLost.Add(1)
		return fmt.Errorf("registry: put: %w", err)
	}
	shard := ShardFor(name, v.Shards)
	var conflict bool
	err = c.quorum("put", replicaOp{
		send: func(conn *wire.Conn, seq int64) error {
			return sendPut(conn, seq, shard, name, version, blob)
		},
		recv: func(conn *wire.Conn, addr string) error {
			err := recvAck(conn, addr)
			conflict = conflict || wire.IsRemote(err, wire.CodeConflict)
			return err
		},
	})
	if err != nil && conflict {
		return fmt.Errorf("registry: put %s v%d: %w", name, version, ErrVersionConflict)
	}
	return err
}

// DirEntry is one name in a directory listing.
type DirEntry struct {
	Name    string
	Version int64
}

// ListExNodes returns the union of directory entries across all shards,
// each read from a majority, freshest version per name, ordered by name.
func (c *QuorumClient) ListExNodes() ([]DirEntry, error) {
	v, err := c.currentView()
	if err != nil {
		c.stats.MajorityLost.Add(1)
		return nil, fmt.Errorf("registry: list: %w", err)
	}
	best := map[string]int64{}
	for shard := 0; shard < v.Shards; shard++ {
		err := c.quorum("list", replicaOp{read: true,
			send: func(conn *wire.Conn, seq int64) error {
				return conn.WriteLine(opDirList, wire.Itoa(seq), wire.Itoa(int64(shard)))
			},
			recv: func(conn *wire.Conn, _ string) error {
				ents, err := readList(conn, "ENTRY", 2, func(f []string) (DirEntry, error) {
					name, err := wire.Unquote(f[0])
					if err != nil {
						return DirEntry{}, err
					}
					version, err := wire.ParseInt("version", f[1])
					return DirEntry{Name: name, Version: version}, err
				})
				for _, e := range ents {
					if e.Version > best[e.Name] {
						best[e.Name] = e.Version
					}
				}
				return err
			},
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]DirEntry, 0, len(best))
	for name, version := range best {
		out = append(out, DirEntry{Name: name, Version: version})
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}
