package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
)

// Everything the program under test sees is generated here from -seed: the
// order of reads and writes, which object each touches, payload sizes and
// contents, layouts and placement rotation. Two runs with one seed issue
// the same operations; opSequenceHash pins that.

type opKind uint8

const (
	opDownload opKind = iota
	opUpload
)

func (k opKind) String() string {
	if k == opDownload {
		return "download"
	}
	return "upload"
}

// opDesc is one generated operation, before it meets any state.
type opDesc struct {
	Kind    opKind
	Pick    int // object to read, or to overwrite when the workload picks write targets
	Size    int // payload bytes of an upload
	Variant int // which generated payload of that size
	Layout  int // workload-defined layout choice
	Rotate  int // rotation of the depot list for placement
}

// mix describes a workload's operation distribution.
type mix struct {
	downloadFrac float64
	objects      int     // live objects per client
	zipfS        float64 // read popularity exponent; 0 = uniform
	minSize      int     // upload sizes are log-uniform in [minSize, maxSize]
	maxSize      int
	layouts      int
	rotations    int // placement rotations to draw from
}

const payloadVariants = 8

// opGen is one client's operation stream.
type opGen struct {
	rng *rand.Rand
	mix mix
	cdf []float64 // cumulative Zipf weights over ranks, nil when uniform
}

func newOpGen(seed int64, client int, m mix) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17)), mix: m}
	if m.zipfS > 0 {
		g.cdf = make([]float64, m.objects)
		var sum float64
		for i := range g.cdf {
			sum += 1 / math.Pow(float64(i+1), m.zipfS)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

func (g *opGen) size() int {
	if g.mix.minSize == g.mix.maxSize {
		return g.mix.maxSize
	}
	lo, hi := math.Log(float64(g.mix.minSize)), math.Log(float64(g.mix.maxSize))
	return int(math.Exp(lo + g.rng.Float64()*(hi-lo)))
}

// upload generates a write, as the preload does for every object.
func (g *opGen) upload() opDesc {
	return opDesc{
		Kind:    opUpload,
		Pick:    g.rng.Intn(g.mix.objects),
		Size:    g.size(),
		Variant: g.rng.Intn(payloadVariants),
		Layout:  g.rng.Intn(g.mix.layouts),
		Rotate:  g.rng.Intn(g.mix.rotations),
	}
}

func (g *opGen) next() opDesc {
	if g.rng.Float64() >= g.mix.downloadFrac {
		return g.upload()
	}
	d := opDesc{Kind: opDownload}
	if g.cdf == nil {
		d.Pick = g.rng.Intn(g.mix.objects)
	} else {
		// Rank r is object r: popularity follows object index, placement
		// does not, so the hot objects are spread over the depots.
		d.Pick = sort.SearchFloat64s(g.cdf, g.rng.Float64())
		if d.Pick >= g.mix.objects {
			d.Pick = g.mix.objects - 1
		}
	}
	return d
}

// opSequenceHash digests the first n operations of every client's stream,
// one client per mix.
func opSequenceHash(seed int64, n int, mixes ...mix) string {
	h := sha256.New()
	var buf [8 * 6]byte
	for c, m := range mixes {
		g := newOpGen(seed, c, m)
		for i := 0; i < n; i++ {
			d := g.next()
			for j, v := range []int{int(d.Kind), d.Pick, d.Size, d.Variant, d.Layout, d.Rotate} {
				binary.LittleEndian.PutUint64(buf[j*8:], uint64(v))
			}
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// payloads hands out upload contents: windows into one seeded random
// buffer, so an upload costs the generator nothing inside the loop and a
// download can be compared byte for byte against what was stored.
type payloads struct {
	base   []byte
	stride int
}

func newPayloads(seed int64, maxSize int) *payloads {
	p := &payloads{stride: 4099}
	p.base = make([]byte, maxSize+payloadVariants*p.stride)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(p.base)
	return p
}

func (p *payloads) get(variant, size int) []byte {
	off := variant * p.stride
	return p.base[off : off+size : off+size]
}
