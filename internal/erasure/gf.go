// Package erasure implements the coding schemes the paper proposes as
// future work for fault-tolerant downloads without full replication (§4):
// RAID-style XOR parity [CLG+94] and Reed-Solomon coding following Plank's
// tutorial [Pla97] (with the systematic-matrix construction from the 2003
// correction note, which derives the generator by Gaussian elimination so
// the code is guaranteed MDS).
//
// Arithmetic is over GF(2^8) with the standard 0x11D primitive polynomial.
package erasure

// gfPoly is the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
const gfPoly = 0x11D

// Log/antilog tables for GF(2^8).
var (
	gfExp [512]byte // doubled to avoid mod-255 in mul
	gfLog [256]byte
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
}

// Add returns a+b in GF(2^8) (XOR; identical to subtraction).
func Add(a, b byte) byte { return a ^ b }

// mul returns a*b in GF(2^8).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// Div returns a/b in GF(2^8). Division by zero panics, as with integers.
func Div(a, b byte) byte {
	if b == 0 {
		panic("erasure: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// Inv returns the multiplicative inverse of a. Zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("erasure: zero has no inverse in GF(2^8)")
	}
	return gfExp[255-int(gfLog[a])]
}

// Exp returns the generator raised to the n-th power.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return gfExp[n]
}

// mulSlice computes dst[i] ^= c * src[i] for all i — the inner loop of
// encoding and decoding.
func mulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(gfLog[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}
