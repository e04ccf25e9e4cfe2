package core

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/integrity"
	"repro/internal/obs"
)

// VerifyEntry is the integrity status of one mapping.
type VerifyEntry struct {
	Index   int
	Mapping *exnode.Mapping
	// State is one of "ok", "unavailable", "corrupt", "unchecked" (no
	// recorded digest).
	State string
	Err   error
}

// VerifyResult summarizes a full integrity audit.
type VerifyResult struct {
	Entries     []VerifyEntry
	OK          int
	Unavailable int
	Corrupt     int
	Unchecked   int
}

// Healthy reports whether every checked segment verified.
func (r *VerifyResult) Healthy() bool { return r.Corrupt == 0 && r.Unavailable == 0 }

// Verify reads every mapping of the exNode in full and checks its recorded
// digest — the end-to-end audit that the paper's checksum metadata enables
// (§4). Unlike Download, Verify visits every replica and coded block, not
// just the fastest copy of each extent, so it finds silent corruption on
// any depot.
func (t *Tools) Verify(x *exnode.ExNode) *VerifyResult {
	res := &VerifyResult{}
	for i, m := range x.Mappings {
		e := VerifyEntry{Index: i, Mapping: m}
		buf := bufpool.Get(int(storedLen(m)))
		err := t.load(m, 0, buf, DownloadOptions{}, nil, obs.SpanContext{})
		bufpool.Put(buf)
		e.Err = err
		switch {
		case errors.As(err, new(*integrity.ErrMismatch)):
			e.State = "corrupt"
			res.Corrupt++
		case err != nil:
			e.State = "unavailable"
			res.Unavailable++
		case m.Checksum == "":
			e.State = "unchecked"
			res.Unchecked++
		default:
			e.State = "ok"
			res.OK++
		}
		res.Entries = append(res.Entries, e)
	}
	return res
}

// String renders a one-line summary.
func (r *VerifyResult) String() string {
	return fmt.Sprintf("verify: %d ok, %d corrupt, %d unavailable, %d unchecked of %d segments",
		r.OK, r.Corrupt, r.Unavailable, r.Unchecked, len(r.Entries))
}
