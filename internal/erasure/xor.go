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
	parity := [][]byte{nil}
	if err := XORParityInto(parity, data); err != nil {
		return nil, err
	}
	return parity[0], nil
}

// XORParityInto is XORParity writing into parity[0], a buffer of the
// blocks' length, whose contents are overwritten, or nil, for which one is
// allocated. It takes RS.EncodeInto's arguments, with m = 1.
func XORParityInto(parity, data [][]byte) error {
	if len(data) == 0 {
		return errors.New("erasure: xor parity of zero blocks")
	}
	if len(parity) != 1 {
		return fmt.Errorf("erasure: xor parity is 1 block, got %d", len(parity))
	}
	size := len(data[0])
	out, err := block(parity[0], size)
	if err != nil {
		return fmt.Errorf("erasure: parity %w", err)
	}
	for i, b := range data {
		if len(b) != size {
			return fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
		subtle.XORBytes(out, out, b)
	}
	parity[0] = out
	return nil
}

// ErrTooManyMissing is returned when XOR recovery faces more than one
// missing block.
var ErrTooManyMissing = errors.New("erasure: xor parity recovers at most one missing block")

// XORRecover reconstructs the data blocks given k+1 blocks (data followed
// by the parity block) with at most one nil entry. It returns the k data
// blocks, reusing survivors.
func XORRecover(blocks [][]byte) ([][]byte, error) {
	data := make([][]byte, max(len(blocks)-1, 0))
	if err := XORRecoverInto(data, blocks); err != nil {
		return nil, err
	}
	return data, nil
}

// XORRecoverInto is XORRecover writing into data, which has k entries, on
// RS.DecodeInto's terms: a surviving data block is set, and a missing one
// is rebuilt into its buffer (allocated when nil).
func XORRecoverInto(data, blocks [][]byte) error {
	if len(blocks) < 2 {
		return errors.New("erasure: xor recover needs data plus parity")
	}
	if len(data) != len(blocks)-1 {
		return fmt.Errorf("erasure: xor recover wants %d data blocks, got %d", len(blocks)-1, len(data))
	}
	missing := -1
	size := -1
	for i, b := range blocks {
		if b == nil {
			if missing != -1 {
				return ErrTooManyMissing
			}
			missing = i
			continue
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
	}
	for d := range data {
		if blocks[d] != nil {
			data[d] = blocks[d]
		}
	}
	if missing == -1 || missing == len(data) {
		// Nothing missing, or only parity missing: data is intact.
		return nil
	}
	rec, err := block(data[missing], size)
	if err != nil {
		return fmt.Errorf("erasure: data %w", err)
	}
	for i, b := range blocks {
		if i != missing {
			subtle.XORBytes(rec, rec, b)
		}
	}
	data[missing] = rec
	return nil
}
