// Package registry replicates the L-Bone registry and adds a sharded
// exNode directory on top of it, removing the two single points of
// failure the paper's stack leaves in place: one registry process and
// exNodes as loose client-side XML files.
//
// The replication model is freestore's (SNIPPETS.md §1): a static view —
// a numbered membership list — with client-driven majority quorums.
// Writes go to every member and succeed on a strict majority of acks;
// reads ask a majority first and merge its answers. Every
// request carries the client's view sequence number; a replica whose
// installed view differs answers STALE_VIEW, and the client refreshes its
// view and retries once. As long as a majority of members are up, all
// failures are *tolerated*; the moment a majority is unreachable the
// client *detects* it and fails fast (DESIGN §9 classifies every path).
//
// The exNode directory partitions names over consistent-hash shards
// (StoreTorrent-style metadata partitioning); each shard is a replicated
// log of put operations with versioned, optimistically-concurrent
// entries.
package registry

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultShards is the directory shard count when a config leaves it zero.
const DefaultShards = 8

// View is one numbered configuration of the replica group. Views are
// static for now: Seq and Members are fixed at deployment, and
// (*Replica).Reconfigure is the hook where dynamic membership (a
// freestore viewgenerator) will install successors.
type View struct {
	Seq     int64    // view-stamp carried by every quorum operation
	Members []string // replica addresses, sorted, deduplicated
	Shards  int      // directory shard count (fixed across views)
}

// NormalizeMembers sorts and deduplicates a member list.
func NormalizeMembers(members []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// Quorum is the strict majority of the view: the ack count writes need
// and the answer count reads need.
func (v View) Quorum() int { return len(v.Members)/2 + 1 }

// Validate checks structural view invariants.
func (v View) Validate() error {
	if v.Seq < 0 {
		return fmt.Errorf("registry: view seq %d negative", v.Seq)
	}
	if len(v.Members) == 0 {
		return fmt.Errorf("registry: view %d has no members", v.Seq)
	}
	if v.Shards <= 0 {
		return fmt.Errorf("registry: view %d has %d shards", v.Seq, v.Shards)
	}
	seen := map[string]bool{}
	for _, m := range v.Members {
		if m == "" || seen[m] {
			return fmt.Errorf("registry: view %d member list %v malformed", v.Seq, v.Members)
		}
		seen[m] = true
	}
	return nil
}

// ShardFor maps a directory name to its shard by consistent FNV-1a
// hashing. Every client and replica must agree on this function.
func ShardFor(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}
