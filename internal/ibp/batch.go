package ibp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// The IBP verb codec. Each batchable verb — ALLOCATE, STORE, LOAD, PROBE,
// EXTEND and DELETE — is one BatchOp, validated by validate, encoded by
// writeBatchOp and parsed by readBatchResult, whether it travels alone as a
// plain request line (Allocate, Store, ...) or as a sub-op of a pipelined
// BATCH. A batch is "BATCH <n>" followed by n standard request lines (STORE
// payloads inline after their lines), flushed as one network write; the
// depot acks the header and answers the n sub-requests in order, each
// exactly as it would answer the verb alone. A sub-op may name the
// allocation minted by an earlier ALLOCATE of the same batch with the
// reference "@<i>", which makes allocate+store one round trip.

// BatchOp describes one operation: a plain verb, or a sub-operation of a
// pipelined batch. Verb selects which fields matter:
//
//   - OpAllocate: MaxSize, Duration, Rel
//   - OpStore:    Cap or Ref, Data
//   - OpLoad:     Cap or Ref, Offset, Length
//   - OpExtend:   Cap or Ref, Duration
//   - OpProbe:    Cap or Ref
//   - OpDelete:   Cap or Ref
//
// Ref < 0 (the constructors set -1) means Cap names the allocation; Ref >=
// 0 references the CapSet minted by the ALLOCATE at that index in the same
// batch, and the depot picks the capability the verb needs (VerbCap).
type BatchOp struct {
	Verb     string
	MaxSize  int64
	Duration time.Duration
	Rel      Reliability
	Cap      Cap
	Ref      int
	Data     []byte
	Offset   int64
	Length   int64
	into     []byte // LOAD: the caller-owned destination LoadIntoCancel reads into
}

// BatchResult is the outcome of one sub-operation. Exactly one of the
// payload fields is meaningful, matching the op's verb; Err is non-nil when
// the sub-operation failed (remote per-op errors and transport errors
// both land here — a dead connection mid-batch fails every unanswered op).
type BatchResult struct {
	Err     error
	Caps    CapSet    // ALLOCATE
	NewLen  int64     // STORE
	Data    []byte    // LOAD (plain allocation, caller-owned)
	Expires time.Time // EXTEND
	Info    AllocInfo // PROBE
	RefCnt  int       // DELETE
}

// AllocateOp builds an ALLOCATE sub-op.
func AllocateOp(maxSize int64, duration time.Duration, rel Reliability) BatchOp {
	return BatchOp{Verb: OpAllocate, MaxSize: maxSize, Duration: duration, Rel: rel, Ref: -1}
}

// StoreRefOp builds a STORE sub-op against the allocation minted by the
// ALLOCATE at index ref in the same batch.
func StoreRefOp(ref int, data []byte) BatchOp {
	return BatchOp{Verb: OpStore, Ref: ref, Data: data}
}

// LoadOp builds a LOAD sub-op.
func LoadOp(r Cap, offset, length int64) BatchOp {
	return BatchOp{Verb: OpLoad, Cap: r, Ref: -1, Offset: offset, Length: length}
}

// ExtendOp builds an EXTEND sub-op.
func ExtendOp(m Cap, duration time.Duration) BatchOp {
	return BatchOp{Verb: OpExtend, Cap: m, Ref: -1, Duration: duration}
}

// batchRef renders a batch-local capability reference token.
func batchRef(i int) string { return "@" + strconv.Itoa(i) }

// ParseBatchRef decodes an "@<i>" token; ok is false for ordinary tokens.
func ParseBatchRef(tok string) (int, bool) {
	if !strings.HasPrefix(tok, "@") {
		return 0, false
	}
	i, err := strconv.Atoi(tok[1:])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// validate checks op client-side so a malformed request fails before it
// touches the network: a batchable verb, a reference to an ALLOCATE among
// earlier (the ops ahead of it in its batch; nil for a plain verb) or a
// capability of the type VerbCap names, a payload under the wire cap, a
// sane range or duration. Plain verbs and batch sub-ops share it.
func (op BatchOp) validate(earlier []BatchOp) error {
	if !Batchable(op.Verb) {
		return fmt.Errorf("ibp: verb %q not batchable", op.Verb)
	}
	if op.Verb == OpAllocate {
		if op.MaxSize <= 0 {
			return errors.New("ibp: allocation size must be positive")
		}
		if !ValidReliability(op.Rel) {
			return fmt.Errorf("ibp: bad reliability %q", op.Rel)
		}
		return nil
	}
	if op.Ref >= 0 {
		if op.Ref >= len(earlier) || earlier[op.Ref].Verb != OpAllocate {
			return fmt.Errorf("ibp: ref @%d does not name an earlier ALLOCATE", op.Ref)
		}
	} else if want := VerbCap(op.Verb); op.Cap.Type != want {
		return fmt.Errorf("ibp: %s requires a %s capability, got %s", op.Verb, want, op.Cap.Type)
	}
	switch {
	case op.Verb == OpStore && int64(len(op.Data)) > wire.MaxBlobLen:
		return errors.New("ibp: store payload exceeds wire limit")
	case op.Verb == OpLoad && (op.Offset < 0 || op.Length < 0):
		return errors.New("ibp: load: negative offset or length")
	case op.Verb == OpExtend && op.Duration <= 0:
		return errors.New("ibp: extend: duration must be positive")
	}
	return nil
}

// payload is the byte count an op's event is credited with on success.
func (op BatchOp) payload() int64 {
	if op.Verb == OpStore {
		return int64(len(op.Data))
	}
	return op.Length
}

// capToken renders the capability token for op, using an @-reference when
// the op targets a batch-local allocation.
func (op BatchOp) capToken() string {
	if op.Ref >= 0 {
		return batchRef(op.Ref)
	}
	return op.Cap.Token()
}

// writeBatchOp appends one sub-request (line plus any payload) to the
// connection's write buffer without flushing.
func writeBatchOp(conn *wire.Conn, op BatchOp) error {
	switch op.Verb {
	case OpAllocate:
		return conn.WriteLineBuffered(OpAllocate, wire.Itoa(op.MaxSize),
			wire.Itoa(int64(op.Duration.Seconds())), string(op.Rel))
	case OpStore:
		if err := conn.WriteLineBuffered(OpStore, op.capToken(), wire.Itoa(int64(len(op.Data)))); err != nil {
			return err
		}
		return conn.WriteBlobBuffered(op.Data)
	case OpLoad:
		return conn.WriteLineBuffered(OpLoad, op.capToken(), wire.Itoa(op.Offset), wire.Itoa(op.Length))
	case OpExtend:
		return conn.WriteLineBuffered(OpExtend, op.capToken(), wire.Itoa(int64(op.Duration.Seconds())))
	case OpProbe:
		return conn.WriteLineBuffered(OpProbe, op.capToken())
	case OpDelete:
		return conn.WriteLineBuffered(OpDelete, op.capToken())
	default:
		return fmt.Errorf("ibp: verb %q not batchable", op.Verb)
	}
}

// readBatchResult parses one reply. A *wire.RemoteError lands in res.Err
// with the connection still usable (the next reply follows); any other
// error means the connection state is unknown and the exchange must stop.
func readBatchResult(conn *wire.Conn, op BatchOp, res *BatchResult) error {
	toks, err := conn.ReadStatus()
	if err != nil {
		if wire.IsRemoteAny(err) {
			res.Err = err
			return nil
		}
		return err
	}
	want := 1
	switch op.Verb {
	case OpAllocate:
		want = 3
	case OpStore:
		want = 2
	case OpProbe:
		want = 5
	}
	if len(toks) != want {
		return fmt.Errorf("ibp: %s: malformed response %v", op.Verb, toks)
	}
	switch op.Verb {
	case OpAllocate:
		for i, dst := range []*Cap{&res.Caps.Read, &res.Caps.Write, &res.Caps.Manage} {
			if *dst, err = ParseCap(toks[i]); err != nil {
				return fmt.Errorf("ibp: allocate: %w", err)
			}
		}
		if res.Caps.Read.Type != CapRead || res.Caps.Write.Type != CapWrite || res.Caps.Manage.Type != CapManage {
			return errors.New("ibp: allocate: capability types out of order")
		}
	case OpStore:
		res.NewLen, err = wire.ParseInt("length", toks[1])
	case OpLoad:
		var n int64
		if n, err = wire.ParseInt("length", toks[0]); err != nil {
			return err
		}
		if n != op.Length {
			return fmt.Errorf("ibp: load: depot returned %d bytes, want %d", n, op.Length)
		}
		if op.into == nil {
			res.Data, err = conn.ReadBlob(n)
			return err
		}
		res.Data = op.into
		return conn.ReadBlobInto(op.into)
	case OpExtend:
		res.Expires, err = parseUnix(toks[0])
	case OpProbe:
		if res.Info.MaxSize, err = wire.ParseInt("maxsize", toks[0]); err != nil {
			return err
		}
		if res.Info.Size, err = wire.ParseInt("size", toks[1]); err != nil {
			return err
		}
		if res.Info.Expires, err = parseUnix(toks[2]); err != nil {
			return err
		}
		res.Info.Reliability = Reliability(toks[3])
		var ref int64
		ref, err = wire.ParseInt("refcount", toks[4])
		res.Info.RefCount = int(ref)
	case OpDelete:
		var ref int64
		ref, err = wire.ParseInt("refcount", toks[0])
		res.RefCnt = int(ref)
	}
	return err
}

// parseUnix parses an expiration token (Unix seconds).
func parseUnix(tok string) (time.Time, error) {
	sec, err := wire.ParseInt("expires", tok)
	return time.Unix(sec, 0).UTC(), err
}

// pipeline is the codec's exchange: it writes ops — under a BATCH header
// when batched — flushes once, and reads their replies into res. It
// returns how many ops were answered and the transport error that stopped
// it.
func pipeline(conn *wire.Conn, ops []BatchOp, res []BatchResult, batched bool) (int, error) {
	if batched {
		if err := conn.WriteLineBuffered(OpBatch, wire.Itoa(int64(len(ops)))); err != nil {
			return 0, err
		}
	}
	for i := range ops {
		if err := writeBatchOp(conn, ops[i]); err != nil {
			return 0, err
		}
	}
	if err := conn.Flush(); err != nil {
		return 0, err
	}
	if batched {
		if _, err := conn.ReadStatus(); err != nil {
			return 0, err
		}
	}
	for i := range ops {
		if err := readBatchResult(conn, ops[i], &res[i]); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// Batch runs ops against the depot at addr as one pipelined exchange and
// returns one result per op, in order. The exchange is never retried (it
// may contain non-idempotent STOREs); a connection failure mid-batch fails
// the unanswered ops with that error while keeping the outcomes of the ops
// already answered. Each sub-operation is reported to the health scoreboard
// and the observer exactly as the same verb sent alone would be — a batch
// is N operations, not one.
//
// A non-nil error means the batch could not run at all (validation or the
// circuit breaker); results is nil then.
func (c *Client) Batch(addr string, ops []BatchOp) ([]BatchResult, error) {
	if len(ops) == 0 {
		return nil, errors.New("ibp: empty batch")
	}
	if len(ops) > MaxBatchOps {
		return nil, fmt.Errorf("ibp: batch of %d ops exceeds limit %d", len(ops), MaxBatchOps)
	}
	for i := range ops {
		if err := ops[i].validate(ops[:i]); err != nil {
			return nil, fmt.Errorf("%w (batch op %d)", err, i)
		}
	}
	results := make([]BatchResult, len(ops))
	if err := c.run(addr, ops, results, true, false, nil, nil); err != nil {
		return nil, err
	}
	return results, nil
}

// AllocateStore mints an allocation and stores payload into it in one
// round trip (ALLOCATE + STORE @0 in a batch). When the allocate succeeds
// but the store fails, the CapSet is returned alongside the error so the
// caller can Delete the orphaned allocation.
func (c *Client) AllocateStore(addr string, maxSize int64, duration time.Duration, rel Reliability, payload []byte) (CapSet, error) {
	res, err := c.Batch(addr, []BatchOp{
		AllocateOp(maxSize, duration, rel),
		StoreRefOp(0, payload),
	})
	if err != nil {
		return CapSet{}, err
	}
	if res[0].Err != nil {
		return CapSet{}, res[0].Err
	}
	return res[0].Caps, res[1].Err
}
