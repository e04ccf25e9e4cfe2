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
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
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
	if c.Addr == "" || !strings.Contains(c.Addr, ":") {
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
	return Cap{Addr: addr, Key: key, Type: t, Tag: computeTag(secret, key, t)}
}

// MintSet mints the full read/write/manage trio for one allocation.
func MintSet(secret []byte, addr, key string) CapSet {
	return CapSet{
		Read:   MintCap(secret, addr, key, CapRead),
		Write:  MintCap(secret, addr, key, CapWrite),
		Manage: MintCap(secret, addr, key, CapManage),
	}
}

// VerifyCap reports whether the capability's tag is authentic under secret.
// Verification is constant-time in the tag comparison.
func VerifyCap(secret []byte, c Cap) bool {
	if !c.Type.valid() {
		return false
	}
	want := computeTag(secret, c.Key, c.Type)
	return hmac.Equal([]byte(want), []byte(c.Tag))
}

func computeTag(secret []byte, key string, t CapType) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(key))
	mac.Write([]byte{0})
	mac.Write([]byte(t))
	return hex.EncodeToString(mac.Sum(nil)[:TagLen])
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
