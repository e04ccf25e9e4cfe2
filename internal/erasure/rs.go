package erasure

import (
	"errors"
	"fmt"
)

// RS is a systematic Reed-Solomon code with k data blocks and m parity
// blocks: any k of the k+m blocks reconstruct the data. Instances are
// immutable and safe for concurrent use.
type RS struct {
	k, m int
	// gen is the (k+m)×k generator: the top k rows are the identity
	// (systematic), the bottom m rows produce parity.
	gen matrix
}

// NewRS constructs a Reed-Solomon code with dataBlocks data and
// parityBlocks parity blocks. dataBlocks+parityBlocks must not exceed 255.
func NewRS(dataBlocks, parityBlocks int) (*RS, error) {
	k, m := dataBlocks, parityBlocks
	if k <= 0 || m < 0 {
		return nil, fmt.Errorf("erasure: invalid code (%d,%d)", k, m)
	}
	if k+m > 255 {
		return nil, fmt.Errorf("erasure: %d blocks exceeds GF(2^8) limit of 255", k+m)
	}
	// Plank's 1997 tutorial used a raw Vandermonde matrix, which is not
	// MDS once the identity is stacked on top; the 2003 correction derives
	// a systematic generator by elementary column operations on an
	// extended Vandermonde matrix, preserving the any-k-rows-invertible
	// property. We implement that: start from the (k+m)×k Vandermonde
	// matrix, then multiply by the inverse of its top k×k square so the
	// top becomes the identity.
	v := vandermonde(k+m, k)
	top := v.subMatrix(seq(0, k))
	topInv, err := top.invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: building generator: %w", err)
	}
	return &RS{k: k, m: m, gen: v.mul(topInv)}, nil
}

// DataBlocks returns k.
func (r *RS) DataBlocks() int { return r.k }

// ParityBlocks returns m.
func (r *RS) ParityBlocks() int { return r.m }

// Encode computes the m parity blocks for the k equal-length data blocks.
// The returned slice holds newly allocated parity blocks.
func (r *RS) Encode(data [][]byte) ([][]byte, error) {
	parity := make([][]byte, r.m)
	if err := r.EncodeInto(parity, data); err != nil {
		return nil, err
	}
	return parity, nil
}

// EncodeInto is Encode writing parity block p into parity[p], which is
// either a buffer of the data blocks' length, whose contents are
// overwritten, or nil, for which one is allocated.
func (r *RS) EncodeInto(parity, data [][]byte) error {
	if err := r.checkBlocks(data); err != nil {
		return err
	}
	if len(parity) != r.m {
		return fmt.Errorf("erasure: encode wants %d parity blocks, got %d", r.m, len(parity))
	}
	size := len(data[0])
	for p := range parity {
		out, err := block(parity[p], size)
		if err != nil {
			return fmt.Errorf("erasure: parity %w", err)
		}
		row := r.gen.row(r.k + p)
		for d := 0; d < r.k; d++ {
			mulSlice(out, data[d], row[d])
		}
		parity[p] = out
	}
	return nil
}

// block returns a zeroed buffer of size bytes to accumulate a coded block
// in: b itself when the caller supplied one of that length, a new one for
// nil.
func block(b []byte, size int) ([]byte, error) {
	if b == nil {
		return make([]byte, size), nil
	}
	if len(b) != size {
		return nil, fmt.Errorf("block has size %d, want %d", len(b), size)
	}
	clear(b)
	return b, nil
}

// ErrNotEnoughBlocks is returned when fewer than k blocks survive.
var ErrNotEnoughBlocks = errors.New("erasure: not enough surviving blocks to decode")

// Decode reconstructs the k data blocks from any k surviving blocks.
// blocks has length k+m with nil entries for missing blocks: indices
// 0..k-1 are data blocks, k..k+m-1 parity. It returns the data blocks,
// reusing surviving data blocks where present.
func (r *RS) Decode(blocks [][]byte) ([][]byte, error) {
	data := make([][]byte, r.k)
	if err := r.DecodeInto(data, blocks); err != nil {
		return nil, err
	}
	return data, nil
}

// DecodeInto is Decode writing into data, which has k entries. data[d] is
// set to blocks[d] when data block d survived; otherwise the block is
// rebuilt into data[d], which is a buffer of the block length, whose
// contents are overwritten, or nil, for which one is allocated. A supplied
// buffer must not overlap a surviving block.
func (r *RS) DecodeInto(data, blocks [][]byte) error {
	if len(blocks) != r.k+r.m {
		return fmt.Errorf("erasure: decode wants %d blocks, got %d", r.k+r.m, len(blocks))
	}
	if len(data) != r.k {
		return fmt.Errorf("erasure: decode wants %d data blocks, got %d", r.k, len(data))
	}
	// Collect surviving block indices and validate sizes.
	var have []int
	size := -1
	for i, b := range blocks {
		if b == nil {
			continue
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
		have = append(have, i)
	}
	if len(have) < r.k {
		return fmt.Errorf("%w: have %d of %d needed", ErrNotEnoughBlocks, len(have), r.k)
	}

	// Pick the first k surviving blocks; when they are the data blocks
	// there is nothing to rebuild. Otherwise invert the corresponding
	// generator rows and multiply to recover the missing data.
	rows := have[:r.k]
	var dec matrix
	if rows[r.k-1] >= r.k {
		var err error
		if dec, err = r.gen.subMatrix(rows).invert(); err != nil {
			return err
		}
	}
	for d := 0; d < r.k; d++ {
		if blocks[d] != nil {
			data[d] = blocks[d]
			continue
		}
		out, err := block(data[d], size)
		if err != nil {
			return fmt.Errorf("erasure: data %w", err)
		}
		for j, src := range rows {
			mulSlice(out, blocks[src], dec.at(d, j))
		}
		data[d] = out
	}
	return nil
}

func (r *RS) checkBlocks(data [][]byte) error {
	if len(data) != r.k {
		return fmt.Errorf("erasure: encode wants %d data blocks, got %d", r.k, len(data))
	}
	size := len(data[0])
	for i, b := range data {
		if len(b) != size {
			return fmt.Errorf("erasure: block %d has size %d, want %d", i, len(b), size)
		}
	}
	return nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// BlockSize is the length of each of the k blocks an n-byte payload is
// split into: ceil(n/k), and at least 1.
func BlockSize(n, k int) int {
	return max((n+k-1)/k, 1)
}

// Split partitions data into k newly allocated blocks of BlockSize bytes,
// zero-padding the tail.
func Split(data []byte, k int) [][]byte {
	if k <= 0 {
		panic("erasure: Split with k <= 0")
	}
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, BlockSize(len(data), k))
	}
	SplitInto(blocks, data)
	return blocks
}

// SplitInto is Split without the copies it can skip: block i is data's
// BlockSize bytes from i*BlockSize. A nil entry of blocks becomes that
// sub-slice of data itself, which only a block lying wholly inside data
// may be; any other entry is a buffer of BlockSize bytes that the block's
// bytes are copied into, zero-padded.
func SplitInto(blocks [][]byte, data []byte) {
	size := BlockSize(len(data), len(blocks))
	for i, b := range blocks {
		lo := min(i*size, len(data))
		if b == nil {
			blocks[i] = data[lo : lo+size : lo+size]
			continue
		}
		clear(b[copy(b[:size], data[lo:]):])
	}
}
