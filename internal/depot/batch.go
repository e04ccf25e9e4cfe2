package depot

import (
	"fmt"

	"repro/internal/ibp"
	"repro/internal/wire"
)

// The depot side of the batched verb path. "BATCH <n>" announces n
// pipelined sub-requests, each in the ordinary single-verb request format;
// the depot acks the header ("OK <n>") and then runs each sub-request
// through the same verb switch as a plain request, in order. The one
// addition over plain pipelining is the batch-local capability reference:
// a token "@<i>" in a sub-request resolves to the capability minted by the
// ALLOCATE at index i earlier in the same batch (see resolve), which is
// what lets a client allocate and store in a single round trip.
//
// Per-op failures answer per-op errors and the batch continues — partial
// failure is the expected case and composes with the client's health
// scoreboard. Only framing violations (malformed header, a sub-verb whose
// payload layout the depot cannot know) tear the connection down, because
// after one of those the byte stream is unparseable.

func (d *Depot) handleBatch(conn *connCtx, args []string) error {
	if len(args) != 1 {
		conn.WriteErr(wire.CodeBadRequest, "BATCH wants <n>")
		return fmt.Errorf("malformed BATCH header")
	}
	n, err := wire.ParseInt("count", args[0])
	if err != nil || n < 1 || n > ibp.MaxBatchOps {
		conn.WriteErr(wire.CodeBadRequest, "bad batch count %q", args[0])
		return fmt.Errorf("bad batch count %q", args[0])
	}
	if err := conn.WriteOK(wire.Itoa(n)); err != nil {
		return err
	}
	d.metrics.Batches.Add(1)
	conn.minted = make([]ibp.CapSet, 0, n)
	defer func() { conn.minted = nil }()
	for int64(len(conn.minted)) < n {
		toks, err := conn.ReadLine()
		if err != nil {
			return fmt.Errorf("batch sub-op %d: %w", len(conn.minted), err)
		}
		if len(toks) == 0 {
			continue
		}
		if !ibp.Batchable(toks[0]) {
			// A sub-verb outside the batchable set may carry a payload whose
			// framing this depot cannot know; answering and continuing would
			// desynchronize the stream, so refuse and drop the connection.
			conn.WriteErr(wire.CodeUnsupported, "verb %s not batchable", toks[0])
			return fmt.Errorf("unbatchable verb %s", toks[0])
		}
		conn.minted = append(conn.minted, ibp.CapSet{})
		if err := d.serve(conn, toks[0], toks[1:]); err != nil {
			return fmt.Errorf("batch sub-op %d (%s): %w", len(conn.minted)-1, toks[0], err)
		}
	}
	return nil
}
