// Package integrity provides the end-to-end checksums the paper proposes
// as exNode metadata (§4: "we also intend to add checksums as exnode
// metadata so that end-to-end guarantees may be made about the integrity
// of the data stored in IBP").
//
// Checksums are computed by the client before upload and verified by the
// client after download — never by the depot — per the end-to-end
// arguments [SRC84] the stack is designed around.
package integrity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Sum computes the hex SHA-256 digest of data.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// ErrMismatch reports a failed verification: the stored bytes differ from
// what the uploader wrote.
type ErrMismatch struct {
	Want string
	Got  string
}

func (e *ErrMismatch) Error() string {
	return fmt.Sprintf("integrity: checksum mismatch: stored data hashes to %.16s…, exnode records %.16s…", e.Got, e.Want)
}

// Verify checks data against the recorded hex digest. An empty recorded
// digest verifies trivially (checksums are optional exNode metadata).
func Verify(data []byte, recorded string) error {
	if recorded == "" {
		return nil
	}
	got := Sum(data)
	if got != recorded {
		return &ErrMismatch{Want: recorded, Got: got}
	}
	return nil
}
