// Package ibp implements the Internet Backplane Protocol — the lowest
// network-visible layer of the Network Storage Stack (paper §2.1).
//
// IBP exposes storage as time-limited, append-only byte arrays. Allocation
// works like a network malloc(): a client asks a depot for space and
// receives a trio of cryptographically secure text strings — capabilities —
// for reading, writing and managing the allocation. Capabilities can be
// passed between clients freely, like URLs; possession is authorization.
//
// This package holds the capability model, the wire protocol constants, and
// the client library. The depot daemon lives in internal/depot.
package ibp

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strings"
	"sync"
	"unicode"
)

// CapType distinguishes the three capabilities of an allocation.
type CapType string

// The three capability types of paper §2.1.
const (
	CapRead   CapType = "READ"
	CapWrite  CapType = "WRITE"
	CapManage CapType = "MANAGE"
)

func (t CapType) valid() bool {
	switch t {
	case CapRead, CapWrite, CapManage:
		return true
	}
	return false
}

// KeyLen is the length in bytes of an allocation key.
const KeyLen = 16

// TagLen is the length in bytes of a capability's truncated HMAC tag.
const TagLen = 16

// Cap is a single capability: an unforgeable reference to one allocation on
// one depot, scoped to one operation class.
type Cap struct {
	Addr string  // depot network address, host:port
	Key  string  // allocation key, hex
	Type CapType // READ, WRITE or MANAGE
	Tag  string  // truncated HMAC-SHA256 over (key, type) under the depot secret, hex
}

// String renders the capability in its canonical text form:
//
//	ibp://host:port/<key>/<TYPE>#<tag>
func (c Cap) String() string {
	return fmt.Sprintf("ibp://%s/%s/%s#%s", c.Addr, c.Key, c.Type, c.Tag)
}

// IsZero reports whether the capability is unset.
func (c Cap) IsZero() bool { return c == Cap{} }

// ErrBadCap is returned when a capability string cannot be parsed.
var ErrBadCap = errors.New("ibp: malformed capability")

// ParseCap parses the canonical text form produced by Cap.String.
func ParseCap(s string) (Cap, error) {
	rest, ok := strings.CutPrefix(s, "ibp://")
	if !ok {
		return Cap{}, fmt.Errorf("%w: missing ibp:// scheme in %q", ErrBadCap, s)
	}
	body, tag, ok := strings.Cut(rest, "#")
	if !ok {
		return Cap{}, fmt.Errorf("%w: missing #tag in %q", ErrBadCap, s)
	}
	addr, keyType, _ := strings.Cut(body, "/")
	c, ok := split(addr, keyType, tag)
	if !ok {
		return Cap{}, fmt.Errorf("%w: want addr/key/type in %q", ErrBadCap, s)
	}
	if err := c.validate(); err != nil {
		return Cap{}, err
	}
	return c, nil
}

// split assembles a capability from its address, "key/type" and tag,
// reporting false unless keyType holds exactly one slash.
func split(addr, keyType, tag string) (Cap, bool) {
	key, typ, ok := strings.Cut(keyType, "/")
	if !ok || strings.Contains(typ, "/") {
		return Cap{}, false
	}
	return Cap{Addr: addr, Key: key, Type: CapType(typ), Tag: tag}, true
}

func (c Cap) validate() error {
	// The wire splits a request line at white space, so an address holding
	// any could not travel in one token.
	if c.Addr == "" || !strings.Contains(c.Addr, ":") || strings.IndexFunc(c.Addr, unicode.IsSpace) >= 0 {
		return fmt.Errorf("%w: bad depot address %q", ErrBadCap, c.Addr)
	}
	if !isHex(c.Key, KeyLen) {
		return fmt.Errorf("%w: bad key %q", ErrBadCap, c.Key)
	}
	if !c.Type.valid() {
		return fmt.Errorf("%w: bad type %q", ErrBadCap, c.Type)
	}
	if !isHex(c.Tag, TagLen) {
		return fmt.Errorf("%w: bad tag", ErrBadCap)
	}
	return nil
}

// isHex reports whether s is the hex encoding of n bytes, in either case.
func isHex(s string, n int) bool {
	if len(s) != 2*n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// CapSet is the trio returned by a successful allocation.
type CapSet struct {
	Read   Cap
	Write  Cap
	Manage Cap
}

// Of returns the trio's capability of type t.
func (s CapSet) Of(t CapType) Cap {
	switch t {
	case CapRead:
		return s.Read
	case CapWrite:
		return s.Write
	}
	return s.Manage
}

// NewKey generates a fresh random allocation key.
func NewKey() (string, error) {
	var b [KeyLen]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("ibp: generating key: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// MintCap creates a capability of the given type for key on the depot at
// addr, tagged under secret. Depots mint capabilities; clients only carry
// them.
func MintCap(secret []byte, addr, key string, t CapType) Cap {
	return NewTagger(secret).MintCap(addr, key, t)
}

// MintSet mints the full read/write/manage trio for one allocation.
func MintSet(secret []byte, addr, key string) CapSet {
	return NewTagger(secret).MintSet(addr, key)
}

// VerifyCap reports whether the capability's tag is authentic under secret.
// Verification is constant-time in the tag comparison.
func VerifyCap(secret []byte, c Cap) bool {
	return NewTagger(secret).VerifyCap(c)
}

// A Tagger mints and verifies capability tags under one secret, as
// MintCap, MintSet and VerifyCap do. It keeps the keyed HMAC states in a
// pool and resets one per tag, where keying a new HMAC costs two SHA-256
// states and two padded key blocks. A depot holds one for its secret. Safe
// for concurrent use.
type Tagger struct {
	macs sync.Pool // of hash.Hash, keyed with the secret
}

// NewTagger returns a Tagger for secret.
func NewTagger(secret []byte) *Tagger {
	secret = bytes.Clone(secret)
	return &Tagger{macs: sync.Pool{New: func() any { return hmac.New(sha256.New, secret) }}}
}

// MintCap creates a capability of the given type for key on the depot at
// addr.
func (tg *Tagger) MintCap(addr, key string, t CapType) Cap {
	return Cap{Addr: addr, Key: key, Type: t, Tag: tg.tag(key, t)}
}

// MintSet mints the full read/write/manage trio for one allocation.
func (tg *Tagger) MintSet(addr, key string) CapSet {
	return CapSet{
		Read:   tg.MintCap(addr, key, CapRead),
		Write:  tg.MintCap(addr, key, CapWrite),
		Manage: tg.MintCap(addr, key, CapManage),
	}
}

// VerifyCap reports whether the capability's tag is authentic.
// Verification is constant-time in the tag comparison.
func (tg *Tagger) VerifyCap(c Cap) bool {
	if !c.Type.valid() {
		return false
	}
	want := tg.tag(c.Key, c.Type)
	return hmac.Equal([]byte(want), []byte(c.Tag))
}

// tag is the hex HMAC-SHA256 of key, a NUL and t, truncated to TagLen.
func (tg *Tagger) tag(key string, t CapType) string {
	mac := tg.macs.Get().(hash.Hash)
	defer tg.macs.Put(mac)
	mac.Reset()
	var msg [2*KeyLen + 16]byte
	mac.Write(append(append(append(msg[:0], key...), 0), t...))
	var sum [sha256.Size]byte
	var tag [2 * TagLen]byte
	hex.Encode(tag[:], mac.Sum(sum[:0])[:TagLen])
	return string(tag[:])
}

// Token renders the key/type/tag part of a capability as a single wire
// token (the depot already knows its own address).
func (c Cap) Token() string { return c.Key + "/" + string(c.Type) + "#" + c.Tag }

// ParseToken parses the wire token form; addr is supplied by context. It
// is ParseCap("ibp://"+addr+"/"+tok) without building that string: only
// a failure, or an addr holding '/' or '#' that would move the split,
// takes the long way, for the same result and error.
func ParseToken(addr, tok string) (Cap, error) {
	keyType, tag, hasTag := strings.Cut(tok, "#")
	if c, ok := split(addr, keyType, tag); ok && hasTag && !strings.ContainsAny(addr, "/#") && c.validate() == nil {
		return c, nil
	}
	return ParseCap("ibp://" + addr + "/" + tok)
}
