// Package sealing implements the encryption layer the paper lists as
// future work (§4): "exnodes will allow multiple types of encryption so
// that unencrypted data does not have to travel over the network, or be
// stored by IBP servers."
//
// Files are sealed client-side with AES-256-CTR before upload; depots only
// ever see ciphertext. CTR mode lets the download tool decrypt arbitrary
// byte ranges without fetching the whole file — the keystream for any
// offset is computable directly — which preserves the range-download and
// streaming features of the Logistical Tools.
package sealing

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// CipherAES256CTR is the cipher name recorded in exNode metadata.
const CipherAES256CTR = "aes256-ctr"

// KeySize is the AES-256 key length in bytes.
const KeySize = 32

// IVSize is the CTR initialization vector length in bytes.
const IVSize = aes.BlockSize

// ErrBadKey is returned for keys of the wrong length.
var ErrBadKey = errors.New("sealing: key must be 32 bytes (AES-256)")

// NewIV generates a fresh random IV.
func NewIV() ([]byte, error) {
	iv := make([]byte, IVSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("sealing: generating iv: %w", err)
	}
	return iv, nil
}

// DeriveKey stretches a passphrase into an AES-256 key. This is a plain
// SHA-256 of the passphrase — adequate for the reproduction; swap in a
// real KDF for production secrets.
func DeriveKey(passphrase string) []byte {
	h := sha256.Sum256([]byte("nss-sealing-v1\x00" + passphrase))
	return h[:]
}

// Seal returns the ciphertext of data in a new slice of the same length.
func Seal(key, iv, data []byte) ([]byte, error) {
	return xorKeyStream(key, iv, data, 0)
}

// UnsealAt decrypts ciphertext that begins at the given byte offset of the
// sealed file into a new slice. Offset may be anywhere in the file; this is
// what lets range downloads decrypt just the bytes they fetched.
func UnsealAt(key, iv, ciphertext []byte, offset int64) ([]byte, error) {
	return xorKeyStream(key, iv, ciphertext, offset)
}

// xorKeyStream is XORKeyStreamAt into a new slice.
func xorKeyStream(key, iv, src []byte, offset int64) ([]byte, error) {
	dst := make([]byte, len(src))
	if err := XORKeyStreamAt(dst, src, key, iv, offset); err != nil {
		return nil, err
	}
	return dst, nil
}

// XORKeyStreamAt writes src XOR the AES-CTR keystream, starting at byte
// offset of the sealed file, into dst. In CTR mode that one operation both
// seals and unseals. dst must be at least len(src) bytes and may be src
// itself, so a caller can transform a buffer where it lies.
func XORKeyStreamAt(dst, src, key, iv []byte, offset int64) error {
	if len(key) != KeySize {
		return ErrBadKey
	}
	if len(iv) != IVSize {
		return fmt.Errorf("sealing: iv must be %d bytes", IVSize)
	}
	if offset < 0 {
		return errors.New("sealing: negative offset")
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("sealing: %w", err)
	}
	// Advance the CTR counter to the block containing offset, then skip
	// the intra-block remainder by discarding keystream bytes.
	ctrIV := addCounter(iv, uint64(offset)/aes.BlockSize)
	stream := cipher.NewCTR(block, ctrIV)
	skip := int(offset % aes.BlockSize)
	if skip > 0 {
		var pad [aes.BlockSize]byte
		stream.XORKeyStream(pad[:skip], pad[:skip])
	}
	stream.XORKeyStream(dst[:len(src)], src)
	return nil
}

// addCounter returns iv + n interpreted as a big-endian 128-bit counter,
// matching crypto/cipher's CTR increment.
func addCounter(iv []byte, n uint64) []byte {
	out := make([]byte, len(iv))
	copy(out, iv)
	// Add n to the low 64 bits with carry into the high 64 bits.
	lo := binary.BigEndian.Uint64(out[8:])
	hi := binary.BigEndian.Uint64(out[:8])
	newLo := lo + n
	if newLo < lo {
		hi++
	}
	binary.BigEndian.PutUint64(out[8:], newLo)
	binary.BigEndian.PutUint64(out[:8], hi)
	return out
}

// EncodeIV and DecodeIV render IVs as exNode metadata strings.
func EncodeIV(iv []byte) string { return hex.EncodeToString(iv) }

// DecodeIV parses the hex form produced by EncodeIV.
func DecodeIV(s string) ([]byte, error) {
	iv, err := hex.DecodeString(s)
	if err != nil || len(iv) != IVSize {
		return nil, fmt.Errorf("sealing: bad iv %q", s)
	}
	return iv, nil
}
