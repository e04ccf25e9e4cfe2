package ibp

import "time"

// Protocol operation names (request line verbs).
const (
	OpAllocate = "ALLOCATE"
	OpStore    = "STORE"
	OpLoad     = "LOAD"
	OpProbe    = "PROBE"
	OpExtend   = "EXTEND"
	OpDelete   = "DELETE"
	OpStatus   = "STATUS"
	OpCopy     = "COPY"
	OpQuit     = "QUIT"
	// OpTrace precedes another operation on the same connection and carries
	// trace context ("TRACE <traceid> <parentspan> <flags>"); the depot
	// answers that operation's status line with its server span as a ts=
	// trailer. The operation's own request line never changes.
	OpTrace = "TRACE"
	// OpBatch announces n pipelined sub-operations ("BATCH <n>") that follow
	// on the same connection, each in the standard single-verb request
	// format. The depot acks "OK <n>", answers each sub-op exactly as it
	// would the verb alone, and resolves batch-local capability references
	// ("@<i>") through VerbCap.
	OpBatch = "BATCH"
)

// Batchable reports whether verb may travel inside a BATCH: the six verbs
// whose request and reply framing every depot knows.
func Batchable(verb string) bool {
	switch verb {
	case OpAllocate, OpStore, OpLoad, OpProbe, OpExtend, OpDelete:
		return true
	}
	return false
}

// VerbCap is the one verb → capability-type table: STORE needs a WRITE
// capability, LOAD (and COPY, for its source) a READ one, and PROBE,
// EXTEND and DELETE a MANAGE one. The client validates against it and the
// depot resolves every capability token — a batch's "@<i>" references
// included — with it.
func VerbCap(verb string) CapType {
	switch verb {
	case OpStore:
		return CapWrite
	case OpLoad, OpCopy:
		return CapRead
	}
	return CapManage
}

// MaxBatchOps bounds the sub-operations of one BATCH exchange on both
// sides of the wire.
const MaxBatchOps = 64

// Reliability expresses how durable an allocation should be (paper §2.1
// exposes service attributes of the underlying storage rather than hiding
// them).
type Reliability string

// Reliability classes.
const (
	// Hard allocations survive until their time limit expires.
	Hard Reliability = "HARD"
	// Soft allocations may be reclaimed early under space pressure.
	Soft Reliability = "SOFT"
)

// ValidReliability reports whether r names a known reliability class.
func ValidReliability(r Reliability) bool { return r == Hard || r == Soft }

// AllocInfo is the metadata returned by PROBE.
type AllocInfo struct {
	MaxSize     int64       // allocation capacity in bytes
	Size        int64       // bytes written so far (append pointer)
	Expires     time.Time   // absolute expiration
	Reliability Reliability // HARD or SOFT
	RefCount    int         // manage DELETE decrements; 0 frees
}

// DepotStatus is the response to STATUS: the resources a depot exposes to
// higher layers (capacity and duration limits).
type DepotStatus struct {
	TotalBytes  int64         // configured capacity
	UsedBytes   int64         // bytes currently committed to live allocations
	MaxDuration time.Duration // longest duration the depot will grant
	Allocations int           // live allocation count
}

// AvailableBytes reports the capacity not yet committed.
func (s DepotStatus) AvailableBytes() int64 { return s.TotalBytes - s.UsedBytes }
