// Package exnode implements the exNode — the aggregation data structure of
// the Network Storage Stack (paper §2.2, Figure 3).
//
// Where a Unix inode aggregates disk blocks into a file, an exNode
// aggregates IBP byte arrays into a logical file. Unlike inode block
// pointers, exNode mappings may be any size, may overlap, and may be
// replicated; each carries service metadata (expiration, observed
// bandwidth, checksum) and an aggregation function describing its role
// (plain replica, striped fragment, XOR parity block, or Reed-Solomon
// block). exNodes serialize to XML so they can be passed between clients
// like capabilities themselves.
package exnode

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ibp"
)

// Function names the aggregation role of a mapping (paper §2.2: "their
// aggregating function (e.g. simple union, parity storage scheme, more
// complex coding)").
type Function string

// Aggregation functions.
const (
	// FuncReplica marks a plain copy of a file extent.
	FuncReplica Function = "replica"
	// FuncParity marks an XOR parity block over a coding group.
	FuncParity Function = "xor-parity"
	// FuncRSData marks a Reed-Solomon data block.
	FuncRSData Function = "rs-data"
	// FuncRSParity marks a Reed-Solomon coding block.
	FuncRSParity Function = "rs-parity"
)

// Mapping binds one IBP byte array to a portion of the file extent, with
// the service attributes the paper lists in §2.2.
type Mapping struct {
	// Offset and Length give the file extent [Offset, Offset+Length)
	// implemented by this byte array. For parity/coding blocks they give
	// the extent of the coding group the block protects.
	Offset int64
	Length int64

	// Capabilities of the underlying allocation. Read is required; Write
	// and Manage may be absent on exnodes shared read-only.
	Read   ibp.Cap
	Write  ibp.Cap
	Manage ibp.Cap

	// Replica is the copy index this mapping belongs to (0-based).
	Replica int

	// Function is the mapping's aggregation role (default FuncReplica).
	Function Function

	// Coding metadata, meaningful when Function != FuncReplica:
	// the mapping is block BlockIndex of a group of DataBlocks data +
	// ParityBlocks coding blocks, each BlockSize bytes.
	Group        string
	BlockIndex   int
	DataBlocks   int
	ParityBlocks int
	BlockSize    int64

	// Service attributes.
	Depot     string    // depot display name, e.g. "UTK1"
	Expires   time.Time // allocation expiration
	Bandwidth float64   // last observed/forecast bandwidth, Mbit/s
	Checksum  string    // hex SHA-256 of the stored bytes ("" = none)
}

// End returns the exclusive end offset of the mapping's extent.
func (m *Mapping) End() int64 { return m.Offset + m.Length }

// IsReplica reports whether the mapping holds plain file bytes.
func (m *Mapping) IsReplica() bool {
	return m.Function == "" || m.Function == FuncReplica
}

// Covers reports whether the mapping's extent covers [start, end).
func (m *Mapping) Covers(start, end int64) bool {
	return m.Offset <= start && end <= m.End()
}

// Overlaps reports whether the mapping's extent intersects [start, end).
func (m *Mapping) Overlaps(start, end int64) bool {
	return m.Offset < end && start < m.End()
}

// ExNode aggregates IBP byte arrays into a logical file.
type ExNode struct {
	Name    string
	Size    int64
	Created time.Time
	Comment string
	// Cipher and IV describe client-side encryption of the stored bytes
	// ("" = stored in the clear). Offsets and Size always refer to the
	// ciphertext, which with CTR-mode ciphers equals the plaintext length.
	Cipher   string
	IV       string
	Mappings []*Mapping
}

// Encrypted reports whether the stored bytes are sealed.
func (x *ExNode) Encrypted() bool { return x.Cipher != "" }

// New creates an empty exNode for a file of the given size.
func New(name string, size int64) *ExNode {
	return &ExNode{Name: name, Size: size}
}

// Add appends a mapping.
func (x *ExNode) Add(m *Mapping) { x.Mappings = append(x.Mappings, m) }

// Clone returns a deep copy (Trim and Augment return new exNodes rather
// than mutating shared ones).
func (x *ExNode) Clone() *ExNode {
	c := *x
	c.Mappings = make([]*Mapping, len(x.Mappings))
	for i, m := range x.Mappings {
		mm := *m
		c.Mappings[i] = &mm
	}
	return &c
}

// Validate checks structural invariants: extents within the file with no
// overlap inside a replica, replica mappings carrying read capabilities,
// coherent coding metadata.
func (x *ExNode) Validate() error {
	if x.Size < 0 {
		return fmt.Errorf("exnode %q: negative size", x.Name)
	}
	// Per-replica extent lists for the overlap check below.
	replicaExtents := map[int][]Extent{}
	for i, m := range x.Mappings {
		if m.Length <= 0 {
			return fmt.Errorf("exnode %q: mapping %d has non-positive length", x.Name, i)
		}
		// Bounds check written overflow-safe: with Offset >= 0 and
		// Length > 0 established, Offset > Size-Length is equivalent to
		// Offset+Length > Size but cannot wrap, whereas m.End() on a
		// huge Offset+Length goes negative and would sail past a
		// direct End() > Size comparison.
		if m.Offset < 0 || m.Offset > x.Size-m.Length {
			return fmt.Errorf("exnode %q: mapping %d extent [%d,+%d) outside file [0,%d)",
				x.Name, i, m.Offset, m.Length, x.Size)
		}
		if m.Read.IsZero() {
			return fmt.Errorf("exnode %q: mapping %d has no read capability", x.Name, i)
		}
		if !m.IsReplica() {
			if m.DataBlocks <= 0 || m.ParityBlocks < 0 || m.BlockSize <= 0 {
				return fmt.Errorf("exnode %q: mapping %d has incoherent coding metadata", x.Name, i)
			}
			if m.BlockIndex < 0 || m.BlockIndex >= m.DataBlocks+m.ParityBlocks {
				return fmt.Errorf("exnode %q: mapping %d block index %d out of range",
					x.Name, i, m.BlockIndex)
			}
			if m.Group == "" {
				return fmt.Errorf("exnode %q: mapping %d missing coding group", x.Name, i)
			}
		}
		if m.IsReplica() {
			replicaExtents[m.Replica] = append(replicaExtents[m.Replica],
				Extent{Start: m.Offset, End: m.End()})
		}
	}
	// Within one replica the mappings must partition their range:
	// duplicate or overlapping extents mean two capabilities claim the
	// same bytes, and a decoder would silently pick one. Distinct
	// replicas covering the same range is the point of replication and
	// stays legal.
	for replica, exts := range replicaExtents {
		sort.Slice(exts, func(i, j int) bool {
			if exts[i].Start != exts[j].Start {
				return exts[i].Start < exts[j].Start
			}
			return exts[i].End < exts[j].End
		})
		for i := 1; i < len(exts); i++ {
			if exts[i].Start < exts[i-1].End {
				return fmt.Errorf("exnode %q: replica %d extents [%d,%d) and [%d,%d) overlap",
					x.Name, replica,
					exts[i-1].Start, exts[i-1].End, exts[i].Start, exts[i].End)
			}
		}
	}
	return nil
}

// Replicas returns the number of distinct replica indices among plain
// mappings.
func (x *ExNode) Replicas() int {
	seen := map[int]bool{}
	for _, m := range x.Mappings {
		if m.IsReplica() {
			seen[m.Replica] = true
		}
	}
	return len(seen)
}

// ReplicaMappings returns the plain mappings of one replica, sorted by
// offset.
func (x *ExNode) ReplicaMappings(replica int) []*Mapping {
	var out []*Mapping
	for _, m := range x.Mappings {
		if m.IsReplica() && m.Replica == replica {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// Extent is a half-open byte range of the file.
type Extent struct {
	Start, End int64
}

// Len returns the extent length.
func (e Extent) Len() int64 { return e.End - e.Start }

// Boundaries returns the download extents of range [start,end): the range
// split at every replica-mapping segment boundary (paper §2.3: "The file
// is broken up into multiple extents, defined at each segment boundary").
// Because extents never straddle a boundary, every mapping that overlaps
// an extent covers it entirely.
func (x *ExNode) Boundaries(start, end int64) []Extent {
	if start < 0 {
		start = 0
	}
	if end > x.Size {
		end = x.Size
	}
	if start >= end {
		return nil
	}
	cuts := map[int64]bool{start: true, end: true}
	for _, m := range x.Mappings {
		if !m.IsReplica() {
			continue
		}
		if m.Offset > start && m.Offset < end {
			cuts[m.Offset] = true
		}
		if e := m.End(); e > start && e < end {
			cuts[e] = true
		}
	}
	points := make([]int64, 0, len(cuts))
	for p := range cuts {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	out := make([]Extent, 0, len(points)-1)
	for i := 0; i+1 < len(points); i++ {
		out = append(out, Extent{points[i], points[i+1]})
	}
	return out
}

// Candidates returns the replica mappings that fully cover ext, in stable
// order. The download tool ranks these by forecast bandwidth.
func (x *ExNode) Candidates(ext Extent) []*Mapping {
	var out []*Mapping
	for _, m := range x.Mappings {
		if m.IsReplica() && m.Covers(ext.Start, ext.End) {
			out = append(out, m)
		}
	}
	return out
}

// CodingGroups returns the coded mappings grouped by coding-group ID.
func (x *ExNode) CodingGroups() map[string][]*Mapping {
	out := map[string][]*Mapping{}
	for _, m := range x.Mappings {
		if !m.IsReplica() {
			out[m.Group] = append(out[m.Group], m)
		}
	}
	for _, ms := range out {
		sort.Slice(ms, func(i, j int) bool { return ms[i].BlockIndex < ms[j].BlockIndex })
	}
	return out
}

// ErrNoCoverage is returned by tools when a requested range has no
// available mapping.
var ErrNoCoverage = errors.New("exnode: range not covered by any mapping")
