// Package erasure implements the coding schemes the paper proposes as
// future work for fault-tolerant downloads without full replication (§4):
// RAID-style XOR parity [CLG+94] and Reed-Solomon coding following Plank's
// tutorial [Pla97] (with the systematic-matrix construction from the 2003
// correction note, which derives the generator by Gaussian elimination so
// the code is guaranteed MDS).
//
// Arithmetic is over GF(2^8) with the standard 0x11D primitive polynomial.
package erasure

import (
	"crypto/subtle"
	"encoding/binary"
)

// gfPoly is the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
const gfPoly = 0x11D

// Log/antilog tables for GF(2^8), and the full product table built from
// them: gfMul[c][s] is c*s, 64 KiB, so the coding kernel is one load per
// byte.
var (
	gfExp [512]byte // doubled to avoid mod-255 in mul
	gfLog [256]byte
	gfMul [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range gfMul {
		for s := range gfMul[c] {
			gfMul[c][s] = mul(byte(c), byte(s))
		}
	}
}

// mul returns a*b in GF(2^8).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// inv returns the multiplicative inverse of a. Zero panics.
func inv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(2^8)")
	}
	return gfExp[255-int(gfLog[a])]
}

// mulSlice computes dst[i] ^= c * src[i] for all i — the inner loop of
// encoding and decoding. It looks up eight products per step and applies
// them to dst as one little-endian word.
func mulSlice(dst, src []byte, c byte) {
	dst = dst[:len(src)]
	switch c {
	case 0:
		return
	case 1:
		subtle.XORBytes(dst, dst, src)
		return
	}
	t := &gfMul[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s8, d8 := src[i:i+8:i+8], dst[i:i+8:i+8] // one bounds check for the word
		s := binary.LittleEndian.Uint64(s8)
		p := uint64(t[byte(s)]) | uint64(t[byte(s>>8)])<<8 |
			uint64(t[byte(s>>16)])<<16 | uint64(t[byte(s>>24)])<<24 |
			uint64(t[byte(s>>32)])<<32 | uint64(t[byte(s>>40)])<<40 |
			uint64(t[byte(s>>48)])<<48 | uint64(t[byte(s>>56)])<<56
		binary.LittleEndian.PutUint64(d8, binary.LittleEndian.Uint64(d8)^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}
