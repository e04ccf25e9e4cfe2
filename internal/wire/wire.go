// Package wire implements the line-oriented framing shared by the IBP and
// L-Bone protocols.
//
// Both protocols follow the style of the original IBP 1.0 wire format: a
// request is a single line of space-separated ASCII tokens terminated by
// '\n', optionally followed by a binary payload whose length was announced
// in the line. Responses mirror this: a status line ("OK ..." or
// "ERR <code> <message...>") optionally followed by a payload.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/bufpool"
)

// MaxLineLen bounds a single protocol line; longer lines are rejected to
// keep malformed or hostile peers from exhausting memory.
const MaxLineLen = 16 * 1024

// MaxBlobLen bounds a single announced binary payload (64 MiB).
const MaxBlobLen = 64 << 20

// ErrLineTooLong is returned when a peer sends a line beyond MaxLineLen.
var ErrLineTooLong = errors.New("wire: line too long")

// ErrBlobTooLarge is returned when an announced payload length is negative
// or beyond MaxBlobLen. A corrupt or hostile length prefix must surface as
// this error, never as an attempted allocation. Match with errors.Is.
var ErrBlobTooLarge = errors.New("wire: blob length exceeds limit")

// firstBlobAlloc caps how much ReadBlob allocates before the peer has
// proven it is actually sending payload bytes: a header announcing
// MaxBlobLen followed by a dead connection costs one chunk, not 64 MiB.
const firstBlobAlloc = 1 << 20

// Conn is a framed connection. It is not safe for concurrent use; protocol
// exchanges are strictly request/response.
type Conn struct {
	raw net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	// Status-line trailer support (trace propagation). A server arms
	// trailerFn to append one extra token to its next status line; a client
	// arms capturePrefix to peel a matching trailing token off status lines
	// before they are parsed. Peers that arm neither are untouched, which is
	// what keeps the trace extension invisible to old clients and depots.
	trailerFn     func() string
	capturePrefix string
	captured      string

	idle idleProbe // CheckIdle's cached socket and read
}

// bufSize sizes each connection's bufio pair for protocol lines, not
// payloads. bufio hands a read or write at least this large straight to
// the kernel, so a payload travels between the socket and its source or
// destination directly and only its first bufSize bytes at most pass
// through the buffer; a larger buffer would copy more of every payload.
// It holds a whole MaxLineLen line.
const bufSize = 32 << 10

// NewConn wraps a network connection with protocol framing.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		raw: c,
		br:  bufio.NewReaderSize(c, bufSize),
		bw:  bufio.NewWriterSize(c, bufSize),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SetDeadline sets the absolute read/write deadline on the underlying
// connection. The zero time clears it.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// NetConn exposes the underlying network connection, so deadline helpers
// that type-assert for richer conn capabilities (netx.VirtualDeadliner on
// simulated links) work on framed connections too.
func (c *Conn) NetConn() net.Conn { return c.raw }

// WriteLine writes tokens joined by single spaces and terminated by '\n',
// then flushes. Tokens must not contain spaces or newlines; use Quote for
// free-form text fields.
func (c *Conn) WriteLine(tokens ...string) error {
	if err := c.WriteLineBuffered(tokens...); err != nil {
		return err
	}
	return c.bw.Flush()
}

// WriteLineBuffered is WriteLine without the trailing flush, for pipelined
// exchanges that batch many request lines (and payloads) into one network
// write. The caller must eventually call Flush.
func (c *Conn) WriteLineBuffered(tokens ...string) error {
	for i, tok := range tokens {
		if i > 0 {
			if err := c.bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if strings.ContainsAny(tok, " \n\r") {
			return fmt.Errorf("wire: token %q contains whitespace (use Quote)", tok)
		}
		if _, err := c.bw.WriteString(tok); err != nil {
			return err
		}
	}
	return c.bw.WriteByte('\n')
}

// Flush pushes buffered writes to the network. WriteLine/WriteBlob flush on
// their own; only the Buffered variants need an explicit Flush.
func (c *Conn) Flush() error { return c.bw.Flush() }

// ReadLine reads one line and splits it into tokens. It returns io.EOF when
// the peer closed the connection cleanly before any bytes arrived.
func (c *Conn) ReadLine() ([]string, error) {
	// The read buffer holds a whole MaxLineLen line, so a line that fills
	// it without ending is too long, and a peer's line costs no more than
	// the buffer.
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(b) == 0 {
			return nil, io.EOF
		}
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, ErrLineTooLong
		}
		return nil, err
	}
	if len(b) > MaxLineLen {
		return nil, ErrLineTooLong
	}
	line := strings.TrimRight(string(b), "\r\n")
	if line == "" {
		return []string{}, nil
	}
	return strings.Fields(line), nil
}

// WriteBlob writes exactly len(p) payload bytes and flushes. The length must
// have been announced on a preceding line.
func (c *Conn) WriteBlob(p []byte) error {
	if err := c.WriteBlobBuffered(p); err != nil {
		return err
	}
	return c.bw.Flush()
}

// WriteBlobBuffered is WriteBlob without the trailing flush, for pipelined
// exchanges. The caller must eventually call Flush.
func (c *Conn) WriteBlobBuffered(p []byte) error {
	if len(p) > MaxBlobLen {
		return fmt.Errorf("wire: blob of %d bytes exceeds limit: %w", len(p), ErrBlobTooLarge)
	}
	_, err := c.bw.Write(p)
	return err
}

// checkBlobLen validates an announced payload length before any allocation.
func checkBlobLen(n int64) error {
	if n < 0 || n > MaxBlobLen {
		return fmt.Errorf("wire: blob length %d out of range: %w", n, ErrBlobTooLarge)
	}
	return nil
}

// ReadBlob reads exactly n payload bytes into a freshly allocated buffer
// owned by the caller (garbage-collected; never pooled). A length outside
// [0, MaxBlobLen] returns ErrBlobTooLarge before touching the allocator.
// For large n the allocation is staged: at most firstBlobAlloc bytes are
// committed before the peer has actually delivered that much payload, so a
// corrupt or hostile header on an otherwise silent connection cannot force
// the full announced allocation.
func (c *Conn) ReadBlob(n int64) ([]byte, error) {
	if err := checkBlobLen(n); err != nil {
		return nil, err
	}
	if n <= firstBlobAlloc {
		p := make([]byte, n)
		if _, err := io.ReadFull(c.br, p); err != nil {
			return nil, err
		}
		return p, nil
	}
	head := bufpool.Get(firstBlobAlloc)
	defer bufpool.Put(head)
	if _, err := io.ReadFull(c.br, head); err != nil {
		return nil, err
	}
	p := make([]byte, n)
	copy(p, head)
	if _, err := io.ReadFull(c.br, p[firstBlobAlloc:]); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadBlobInto reads exactly len(p) payload bytes into p, which the caller
// provides and keeps owning. This is the zero-allocation read path; p may be
// a bufpool buffer or a caller-final destination.
func (c *Conn) ReadBlobInto(p []byte) error {
	if err := checkBlobLen(int64(len(p))); err != nil {
		return err
	}
	_, err := io.ReadFull(c.br, p)
	return err
}

// ReadBlobPooled reads exactly n payload bytes into a buffer borrowed from
// bufpool. Ownership of the returned buffer transfers to the caller, which
// must release it with bufpool.Put exactly once (bufpool ownership rule 4).
// On error nothing is returned and nothing is retained. Length validation
// matches ReadBlob. The staging concern does not apply: pool memory is
// already committed, so a lying header costs nothing new.
func (c *Conn) ReadBlobPooled(n int64) ([]byte, error) {
	if err := checkBlobLen(n); err != nil {
		return nil, err
	}
	p := bufpool.Get(int(n))
	if _, err := io.ReadFull(c.br, p); err != nil {
		bufpool.Put(p)
		return nil, err
	}
	return p, nil
}

// Quote encodes a free-form string as a single protocol token using URL-ish
// percent escaping of spaces, percent signs, and control characters. The
// one exception is a lone NUL byte: its escape, %00, is the empty-string
// marker, so it travels raw. NUL is not whitespace to WriteLine or
// ReadLine, and Unquote passes unescaped bytes through.
func Quote(s string) string {
	if s == "\x00" {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch <= ' ' || ch == '%' || ch == 0x7f {
			fmt.Fprintf(&b, "%%%02x", ch)
		} else {
			b.WriteByte(ch)
		}
	}
	if b.Len() == 0 {
		return "%00" // empty string marker (decodes to "")
	}
	return b.String()
}

// Unquote reverses Quote.
func Unquote(s string) (string, error) {
	if s == "%00" {
		return "", nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("wire: truncated escape in %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("wire: bad escape in %q: %w", s, err)
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), nil
}

// Status codes shared across protocols.
const (
	CodeBadRequest   = "BAD_REQUEST"
	CodeNotFound     = "NOT_FOUND"
	CodeDenied       = "DENIED"
	CodeExpired      = "EXPIRED"
	CodeNoSpace      = "NO_SPACE"
	CodeOutOfRange   = "OUT_OF_RANGE"
	CodeInternal     = "INTERNAL"
	CodeUnsupported  = "UNSUPPORTED"
	CodeDurationCap  = "DURATION_LIMIT"
	CodeUnavailable  = "UNAVAILABLE"
	CodeCapMismatch  = "CAP_MISMATCH"
	CodeQuotaReached = "QUOTA"
	// Replicated-registry codes (internal/registry): the request carried
	// a view stamp older than the replica's installed view, or a
	// directory write lost an optimistic-concurrency race.
	CodeStaleView = "STALE_VIEW"
	CodeConflict  = "CONFLICT"
)

// RemoteError is an error reported by the server side of a protocol
// exchange.
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error %s: %s", e.Code, e.Message)
}

// IsRemoteAny reports whether err is any RemoteError.
func IsRemoteAny(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// IsRemote reports whether err is a RemoteError with the given code.
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// SetStatusTrailer arms f to supply one extra token appended to the next
// status line written via WriteOK or WriteErr, after which the trailer is
// disarmed. f runs at write time, so it can summarize the whole exchange
// (the depot uses this to return its server-side span). An empty return
// suppresses the token.
func (c *Conn) SetStatusTrailer(f func() string) { c.trailerFn = f }

// appendStatusTrailer consumes an armed trailer into the token list.
func (c *Conn) appendStatusTrailer(tokens []string) []string {
	f := c.trailerFn
	if f == nil {
		return tokens
	}
	c.trailerFn = nil
	if tok := f(); tok != "" {
		tokens = append(tokens, tok)
	}
	return tokens
}

// CaptureStatusTrailer arms trailer capture: ReadStatus will peel a final
// status-line token starting with prefix (if present) before parsing, and
// stash it for StatusTrailer. An empty prefix disarms capture.
func (c *Conn) CaptureStatusTrailer(prefix string) {
	c.capturePrefix = prefix
	c.captured = ""
}

// StatusTrailer returns the most recently captured trailer token ("" when
// none arrived) and clears it.
func (c *Conn) StatusTrailer() string {
	t := c.captured
	c.captured = ""
	return t
}

// WriteOK writes an "OK" status line with optional extra tokens.
func (c *Conn) WriteOK(tokens ...string) error {
	return c.WriteLine(c.appendStatusTrailer(append([]string{"OK"}, tokens...))...)
}

// WriteErr writes an "ERR <code> <quoted message>" status line.
func (c *Conn) WriteErr(code, format string, args ...any) error {
	return c.WriteLine(c.appendStatusTrailer([]string{"ERR", code, Quote(fmt.Sprintf(format, args...))})...)
}

// ReadStatus reads a status line. On "OK" it returns the remaining tokens;
// on "ERR" it returns a *RemoteError.
func (c *Conn) ReadStatus() ([]string, error) {
	toks, err := c.ReadLine()
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, errors.New("wire: empty status line")
	}
	if c.capturePrefix != "" && len(toks) >= 2 &&
		strings.HasPrefix(toks[len(toks)-1], c.capturePrefix) {
		c.captured = toks[len(toks)-1]
		toks = toks[:len(toks)-1]
	}
	switch toks[0] {
	case "OK":
		return toks[1:], nil
	case "ERR":
		re := &RemoteError{Code: CodeInternal}
		if len(toks) > 1 {
			re.Code = toks[1]
		}
		if len(toks) > 2 {
			if msg, err := Unquote(toks[2]); err == nil {
				re.Message = msg
			}
		}
		return nil, re
	default:
		return nil, fmt.Errorf("wire: malformed status line %q", strings.Join(toks, " "))
	}
}

// ParseInt parses tok as a base-10 int64 with a contextual error.
func ParseInt(field, tok string) (int64, error) {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: bad %s %q", field, tok)
	}
	return v, nil
}

// Itoa formats an int64 token.
func Itoa(v int64) string { return strconv.FormatInt(v, 10) }

// IsGone reports whether err is a remote NOT_FOUND or EXPIRED — the
// allocation is permanently gone, as opposed to its depot being down.
func IsGone(err error) bool {
	return IsRemote(err, CodeNotFound) || IsRemote(err, CodeExpired)
}
