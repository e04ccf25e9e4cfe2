package erasure

import (
	"crypto/subtle"
	"errors"
	"fmt"
)

// XOR parity is the RAID-5 scheme [CLG+94]: one parity block over k data
// blocks tolerates the loss of any single block.

// XORParity returns the XOR of the equal-length data blocks.
func XORParity(data [][]byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, errors.New("erasure: xor parity of zero blocks")
	}
	size := len(data[0])
	out := make([]byte, size)
	for i, b := range data {
		if len(b) != size {
			return nil, fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
		subtle.XORBytes(out, out, b)
	}
	return out, nil
}

// ErrTooManyMissing is returned when XOR recovery faces more than one
// missing block.
var ErrTooManyMissing = errors.New("erasure: xor parity recovers at most one missing block")

// XORRecover reconstructs the data blocks given k+1 blocks (data followed
// by the parity block) with at most one nil entry. It returns the k data
// blocks, reusing survivors.
func XORRecover(blocks [][]byte) ([][]byte, error) {
	if len(blocks) < 2 {
		return nil, errors.New("erasure: xor recover needs data plus parity")
	}
	missing := -1
	size := -1
	for i, b := range blocks {
		if b == nil {
			if missing != -1 {
				return nil, ErrTooManyMissing
			}
			missing = i
			continue
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return nil, fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
	}
	k := len(blocks) - 1
	if missing == -1 || missing == k {
		// Nothing missing, or only parity missing: data is intact.
		return blocks[:k], nil
	}
	rec := make([]byte, size)
	for i, b := range blocks {
		if i != missing {
			subtle.XORBytes(rec, rec, b)
		}
	}
	out := append([][]byte(nil), blocks[:k]...)
	out[missing] = rec
	return out, nil
}
