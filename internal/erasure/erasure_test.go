package erasure

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// Exhaustive checks of the small-field structure.
	for a := 0; a < 256; a++ {
		x := byte(a)
		if mul(x, 1) != x {
			t.Fatalf("%d * 1 != %d", a, a)
		}
		if mul(x, 0) != 0 {
			t.Fatalf("%d * 0 != 0", a)
		}
		if a != 0 && mul(x, inv(x)) != 1 {
			t.Fatalf("%d * inv(%d) != 1", a, a)
		}
		for b := 0; b < 256; b++ {
			if gfMul[a][b] != mul(x, byte(b)) {
				t.Fatalf("product table: %d * %d = %d, want %d", a, b, gfMul[a][b], mul(x, byte(b)))
			}
		}
	}
	// Spot-check associativity/commutativity/distributivity on a grid.
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 11 {
			for c := 0; c < 256; c += 13 {
				x, y, z := byte(a), byte(b), byte(c)
				if mul(x, y) != mul(y, x) {
					t.Fatal("multiplication not commutative")
				}
				if mul(mul(x, y), z) != mul(x, mul(y, z)) {
					t.Fatal("multiplication not associative")
				}
				if mul(x, y^z) != mul(x, y)^mul(x, z) {
					t.Fatal("distributivity fails")
				}
			}
		}
	}
}

func TestGFInvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inv(0) should panic")
		}
	}()
	inv(0)
}

// checkMulSlice runs mulSlice on src at an odd offset into its buffer, into
// dst at another, and compares every byte with the scalar product; the
// guard bytes around dst must come out untouched.
func checkMulSlice(t testing.TB, src, dst []byte, c byte) {
	t.Helper()
	const guard = 0xA5
	sb := make([]byte, len(src)+1)
	db := make([]byte, len(dst)+6)
	for i := range db {
		db[i] = guard
	}
	s, d := sb[1:1+len(src)], db[3:3+len(dst)]
	copy(s, src)
	copy(d, dst)
	mulSlice(d, s, c)
	for i := range d {
		if want := dst[i] ^ mul(c, src[i]); d[i] != want {
			t.Fatalf("c=%d len=%d: byte %d = %#x, want %#x", c, len(src), i, d[i], want)
		}
	}
	for i, b := range append(db[:3:3], db[3+len(dst):]...) {
		if b != guard {
			t.Fatalf("c=%d len=%d: guard byte %d overwritten", c, len(src), i)
		}
	}
}

// TestMulSliceMatchesScalar checks the word-at-a-time table kernel against
// the log/exp product for every coefficient: at each length around one
// word and two, and at an RS 3+2 block of a 1 MiB file, which is not a
// multiple of 8.
func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{349_526}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		src, dst := make([]byte, n), make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		for c := 0; c < 256; c++ {
			checkMulSlice(t, src, dst, byte(c))
		}
	}
}

func FuzzMulSlice(f *testing.F) {
	f.Add([]byte{}, []byte{}, byte(2))
	f.Add([]byte{0, 1, 2, 0xff}, []byte{9, 8, 7, 6}, byte(1))
	f.Add([]byte("fault-tolerance in the network"), []byte("storage stack: coding blocks!!"), byte(0x8e))
	f.Add(bytes.Repeat([]byte{0xff}, 23), bytes.Repeat([]byte{0x01}, 23), byte(0xff))
	f.Fuzz(func(t *testing.T, src, dst []byte, c byte) {
		n := min(len(src), len(dst))
		checkMulSlice(t, src[:n], dst[:n], c)
	})
}

func TestMatrixInvertIdentity(t *testing.T) {
	m := identity(5)
	inv, err := m.invert()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inv.data, m.data) {
		t.Fatal("identity inverse should be identity")
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		m := newMatrix(n, n)
		for i := range m.data {
			m.data[i] = byte(rng.Intn(256))
		}
		inv, err := m.invert()
		if err != nil {
			continue // singular random matrix; skip
		}
		prod := m.mul(inv)
		if !bytes.Equal(prod.data, identity(n).data) {
			t.Fatalf("m * m^-1 != I for n=%d", n)
		}
	}
}

func TestMatrixSingular(t *testing.T) {
	m := newMatrix(2, 2) // all zeros
	if _, err := m.invert(); err == nil {
		t.Fatal("zero matrix inversion should fail")
	}
}

func TestRSEncodeDecodeAllErasurePatterns(t *testing.T) {
	// For small codes, exhaustively verify every erasure pattern of up to
	// m losses decodes — the MDS property Plank's correction note is about
	// — at block sizes that leave the kernel a tail shorter than a word.
	rng := rand.New(rand.NewSource(7))
	for _, code := range []struct{ k, m int }{{3, 2}, {4, 2}, {4, 3}} {
		rs, err := NewRS(code.k, code.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 13, 64, 4099} {
			k, m := code.k, code.m
			data := make([][]byte, k)
			for i := range data {
				data[i] = make([]byte, size)
				rng.Read(data[i])
			}
			parity, err := rs.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			all := append(append([][]byte{}, data...), parity...)

			n := k + m
			for mask := 0; mask < 1<<n; mask++ {
				lost := 0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						lost++
					}
				}
				if lost > m {
					continue
				}
				blocks := make([][]byte, n)
				for i := 0; i < n; i++ {
					if mask&(1<<i) == 0 {
						blocks[i] = all[i]
					}
				}
				got, err := rs.Decode(blocks)
				if err != nil {
					t.Fatalf("RS %d+%d size %d mask %b: %v", k, m, size, mask, err)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(got[i], data[i]) {
						t.Fatalf("RS %d+%d size %d mask %b: data block %d wrong", k, m, size, mask, i)
					}
				}
			}
		}
	}
}

func TestRSDecodeExactlyKSurvivors(t *testing.T) {
	rs, err := NewRS(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{{1, 2}, {3, 4}, {5, 6}}
	parity, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Lose 2 blocks (the max): decode from exactly k=3 survivors.
	blocks := [][]byte{nil, data[1], nil, parity[0], parity[1]}
	got, err := rs.Decode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("block %d wrong after max-erasure decode", i)
		}
	}
	// Lose 3 blocks: must fail.
	blocks = [][]byte{nil, nil, nil, parity[0], parity[1]}
	if _, err := rs.Decode(blocks); err == nil {
		t.Fatal("decode with fewer than k survivors should fail")
	}
}

func TestRSValidation(t *testing.T) {
	if _, err := NewRS(0, 1); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := NewRS(200, 100); err == nil {
		t.Fatal("k+m>255 should fail")
	}
	rs, _ := NewRS(2, 1)
	if _, err := rs.Encode([][]byte{{1}}); err == nil {
		t.Fatal("wrong block count should fail")
	}
	if _, err := rs.Encode([][]byte{{1}, {1, 2}}); err == nil {
		t.Fatal("uneven blocks should fail")
	}
	if _, err := rs.Decode([][]byte{{1}}); err == nil {
		t.Fatal("wrong decode block count should fail")
	}
	if _, err := rs.Decode([][]byte{{1}, {1, 2}, nil}); err == nil {
		t.Fatal("uneven decode blocks should fail")
	}
}

func TestRSPropertyRandomCodesAndErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(kRaw, mRaw uint8, seed int64) bool {
		k := int(kRaw%8) + 1
		m := int(mRaw%5) + 1
		rs, err := NewRS(k, m)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, 32)
			r.Read(data[i])
		}
		parity, err := rs.Encode(data)
		if err != nil {
			return false
		}
		all := append(append([][]byte{}, data...), parity...)
		// Erase m random distinct blocks.
		perm := rng.Perm(k + m)
		blocks := make([][]byte, k+m)
		copy(blocks, all)
		for _, i := range perm[:m] {
			blocks[i] = nil
		}
		got, err := rs.Decode(blocks)
		if err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(got[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitJoinRoundTripProperty(t *testing.T) {
	f := func(data []byte, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		blocks := Split(data, k)
		if len(blocks) != k {
			return false
		}
		size := len(blocks[0])
		for _, b := range blocks {
			if len(b) != size {
				return false
			}
		}
		return bytes.Equal(bytes.Join(blocks, nil)[:len(data)], data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXORParityRecoverEachPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := 5
	for _, size := range []int{1, 13, 128, 1001} {
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity, err := XORParity(data)
		if err != nil {
			t.Fatal(err)
		}
		for lost := 0; lost <= k; lost++ {
			blocks := make([][]byte, k+1)
			copy(blocks, data)
			blocks[k] = parity
			blocks[lost] = nil
			got, err := XORRecover(blocks)
			if err != nil {
				t.Fatalf("size %d lost=%d: %v", size, lost, err)
			}
			for i := 0; i < k; i++ {
				if !bytes.Equal(got[i], data[i]) {
					t.Fatalf("size %d lost=%d: block %d wrong", size, lost, i)
				}
			}
			if lost < k && blocks[lost] != nil {
				t.Fatalf("size %d lost=%d: recovery wrote into the caller's slice", size, lost)
			}
		}
	}
}

func TestXORRecoverTwoMissingFails(t *testing.T) {
	blocks := [][]byte{nil, nil, {1, 2}}
	if _, err := XORRecover(blocks); err != ErrTooManyMissing {
		t.Fatalf("got %v, want ErrTooManyMissing", err)
	}
}

func TestXORValidation(t *testing.T) {
	if _, err := XORParity(nil); err == nil {
		t.Fatal("empty parity should fail")
	}
	if _, err := XORParity([][]byte{{1}, {1, 2}}); err == nil {
		t.Fatal("uneven parity blocks should fail")
	}
	if _, err := XORRecover([][]byte{{1}}); err == nil {
		t.Fatal("too few recover blocks should fail")
	}
	if _, err := XORRecover([][]byte{{1}, {1, 2}, {1}}); err == nil {
		t.Fatal("uneven recover blocks should fail")
	}
}

func TestXOREquivalentToRSWithOneParity(t *testing.T) {
	// An RS(k,1) code built from our generator is a linear combination
	// with all-ones first parity row (after systematization the parity row
	// sums data blocks with coefficients); verify at least that both
	// schemes recover the same lost block.
	rs, err := NewRS(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 16)
		rng.Read(data[i])
	}
	rsParity, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{data[0], nil, data[2], data[3], rsParity[0]}
	got, err := rs.Decode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[1], data[1]) {
		t.Fatal("RS(4,1) failed to recover")
	}
}

// dirty returns n buffers of size bytes full of junk, as pooled buffers
// come back.
func dirty(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = bytes.Repeat([]byte{0xEE}, size)
	}
	return out
}

// TestIntoVariantsOverwriteDirtyBuffers: the in-place codecs write into
// buffers that hold junk and give what the allocating ones give, and
// SplitInto slices the blocks that lie wholly inside the data.
func TestIntoVariantsOverwriteDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1000)
	rng.Read(data)
	const k, m = 3, 2
	size := BlockSize(len(data), k)
	want := Split(data, k)

	blocks := make([][]byte, k)
	blocks[k-1] = dirty(1, size)[0] // 3×334 > 1000: only the last block pads
	SplitInto(blocks, data)
	for i, b := range blocks {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("SplitInto block %d differs from Split", i)
		}
	}
	if &blocks[0][0] != &data[0] || &blocks[1][0] != &data[size] {
		t.Fatal("SplitInto copied a block that lies inside the data")
	}

	rs, err := NewRS(k, m)
	if err != nil {
		t.Fatal(err)
	}
	wantParity, err := rs.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	parity := dirty(m, size)
	if err := rs.EncodeInto(parity, blocks); err != nil {
		t.Fatal(err)
	}
	for p := range parity {
		if !bytes.Equal(parity[p], wantParity[p]) {
			t.Fatalf("EncodeInto parity %d differs from Encode", p)
		}
	}
	out := dirty(k, size)
	if err := rs.DecodeInto(out, [][]byte{nil, want[1], nil, parity[0], parity[1]}); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("DecodeInto data block %d mismatch", i)
		}
	}

	xorParity := dirty(1, size)
	if err := XORParityInto(xorParity, want); err != nil {
		t.Fatal(err)
	}
	out = dirty(k, size)
	if err := XORRecoverInto(out, [][]byte{want[0], nil, want[2], xorParity[0]}); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("XORRecoverInto data block %d mismatch", i)
		}
	}
	if err := rs.EncodeInto(dirty(m, size+1), blocks); err == nil {
		t.Fatal("EncodeInto took parity buffers of the wrong size")
	}
}
