package exnode

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/ibp"
)

// The paper expresses exNodes "concretely as an encoding of storage
// resources (typically IBP capabilities) and associated metadata in XML"
// (§2.2). This file defines that encoding, by hand, for its one schema:
// the two field tables below. Marshal writes the bytes encoding/xml wrote
// for it. Unmarshal reads a strict subset of XML (DESIGN §6) and rejects
// the rest rather than guess. The encoding/xml codec is the test oracle.

// CurrentVersion is the serialization version this package writes.
const CurrentVersion = 1

const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// field is an attribute or leaf element of the schema; ptr points at its
// value in a T. An optional attribute and an empty leaf are not written.
type field[T any] struct {
	name string
	kind int
	ptr  func(*T) any
}

const (
	attr = iota
	optAttr
	leaf
)

// doc is the <exnode> element: the exNode and its format version.
type doc struct {
	*ExNode
	version int
}

// The fields in the order Marshal writes them: attributes, then leaves.
var docFields = []field[doc]{
	{"version", attr, func(d *doc) any { return &d.version }},
	{"name", attr, func(d *doc) any { return &d.Name }},
	{"size", attr, func(d *doc) any { return &d.Size }},
	{"created", optAttr, func(d *doc) any { return &d.Created }},
	{"cipher", optAttr, func(d *doc) any { return &d.Cipher }},
	{"iv", optAttr, func(d *doc) any { return &d.IV }},
	{"comment", leaf, func(d *doc) any { return &d.Comment }},
}

var mappingFields = []field[Mapping]{
	{"function", optAttr, func(m *Mapping) any { return (*string)(&m.Function) }},
	{"replica", attr, func(m *Mapping) any { return &m.Replica }},
	{"offset", attr, func(m *Mapping) any { return &m.Offset }},
	{"length", attr, func(m *Mapping) any { return &m.Length }},
	{"read", leaf, func(m *Mapping) any { return &m.Read }},
	{"write", leaf, func(m *Mapping) any { return &m.Write }},
	{"manage", leaf, func(m *Mapping) any { return &m.Manage }},
	{"group", leaf, func(m *Mapping) any { return &m.Group }},
	{"blockindex", leaf, func(m *Mapping) any { return &m.BlockIndex }},
	{"datablocks", leaf, func(m *Mapping) any { return &m.DataBlocks }},
	{"parityblocks", leaf, func(m *Mapping) any { return &m.ParityBlocks }},
	{"blocksize", leaf, func(m *Mapping) any { return &m.BlockSize }},
	{"depot", leaf, func(m *Mapping) any { return &m.Depot }},
	{"expires", leaf, func(m *Mapping) any { return &m.Expires }},
	{"bandwidth", leaf, func(m *Mapping) any { return &m.Bandwidth }},
	{"checksum", leaf, func(m *Mapping) any { return &m.Checksum }},
}

// Marshal serializes the exNode to XML.
func Marshal(x *ExNode) ([]byte, error) {
	b := append(make([]byte, 0, 512+640*len(x.Mappings)), xmlDecl+"\n<exnode"...)
	b, children := appendFields(b, "\n  <", docFields, &doc{x, CurrentVersion})
	for _, m := range x.Mappings {
		var leaves bool
		b, leaves = appendFields(append(b, "\n  <mapping"...), "\n    <", mappingFields, m)
		if leaves {
			b = append(b, "\n  "...)
		}
		b, children = append(b, "</mapping>"...), true
	}
	if children {
		b = append(b, '\n')
	}
	return append(b, "</exnode>\n"...), nil
}

// appendFields writes t's attributes, ends the start tag at the first
// leaf, and writes the leaves one per line, each opened by indent. It
// reports whether it wrote a leaf.
func appendFields[T any](b []byte, indent string, fields []field[T], t *T) ([]byte, bool) {
	wrote := false
	for i, f := range fields {
		if f.kind == leaf && fields[i-1].kind != leaf {
			b = append(b, '>')
		}
		n := len(b)
		if f.kind == leaf {
			b = append(append(append(b, indent...), f.name...), '>')
		} else {
			b = append(append(append(b, ' '), f.name...), `="`...)
		}
		var set bool
		switch b, set = appendValue(b, f.ptr(t)); {
		case !set && f.kind != attr:
			b = b[:n]
		case f.kind == leaf:
			b, wrote = append(append(append(b, "</"...), f.name...), '>'), true
		default:
			b = append(b, '"')
		}
	}
	return b, wrote
}

// appendValue writes *v and reports whether it is not the zero value.
func appendValue(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case *string:
		return escape(b, *v), *v != ""
	case *int:
		return strconv.AppendInt(b, int64(*v), 10), *v != 0
	case *int64:
		return strconv.AppendInt(b, *v, 10), *v != 0
	case *float64: // -0 counts as zero, as it did for encoding/xml
		return strconv.AppendFloat(b, *v, 'g', -1, 64), *v != 0
	case *time.Time:
		return v.UTC().AppendFormat(b, time.RFC3339), !v.IsZero()
	case *ibp.Cap: // its String form
		b = escape(append(escape(append(b, "ibp://"...), v.Addr), '/'), v.Key)
		b = escape(append(escape(append(b, '/'), string(v.Type)), '#'), v.Tag)
		return b, !v.IsZero()
	}
	panic("exnode: field of unknown type")
}

// escapes are the character references encoding/xml writes.
var escapes = [...]string{'\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;",
	'"': "&#34;", '&': "&amp;", '\'': "&#39;", '<': "&lt;", '>': "&gt;"}

// plain marks the bytes escape copies as they are: ASCII other than the
// controls and the characters above.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = int(c) >= len(escapes) || escapes[c] == ""
	}
	return t
}()

// escape appends s as encoding/xml escapes text: the characters above as
// references, and each byte that is not UTF-8 and each rune that is not an
// XML character as U+FFFD.
func escape(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if plain[s[i]] {
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		esc := "\uFFFD"
		if int(r) < len(escapes) && escapes[r] != "" {
			esc = escapes[r]
		} else if w > 1 && isXMLChar(r) {
			i += w
			continue
		}
		b, last, i = append(append(b, s[last:i]...), esc...), i+w, i+w
	}
	return append(b, s[last:]...)
}

// isXMLChar reports whether r is in XML's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}

// Unmarshal parses the XML form and validates the result.
func Unmarshal(data []byte) (*ExNode, error) {
	p := &parser{s: string(data)}
	if !utf8.ValidString(p.s) || strings.Contains(p.s, "\uFFFE") || strings.Contains(p.s, "\uFFFF") {
		p.fail("not UTF-8, or holds U+FFFE or U+FFFF")
	}
	p.lit(xmlDecl)
	p.space()
	p.expect("<exnode")
	d := &doc{ExNode: &ExNode{}}
	readElement(p, "exnode", docFields, d, func() {
		m := &Mapping{}
		d.Add(m)
		readElement(p, "mapping", mappingFields, m, nil)
	})
	if p.space(); p.i < len(p.s) {
		p.fail("data after </exnode>")
	}
	if p.err == nil && d.version > CurrentVersion {
		p.err = fmt.Errorf("exnode: unsupported version %d", d.version)
	}
	if p.err == nil {
		p.err = d.Validate()
	}
	if p.err != nil {
		return nil, p.err
	}
	return d.ExNode, nil
}

// parser reads s from i. The first error sticks: after it every read
// fails, so the loops above stop.
type parser struct {
	s   string
	i   int
	err error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("exnode: unmarshal: offset %d: "+format, append([]any{p.i}, args...)...)
	}
}

// readElement reads the rest of an element whose name is read: its
// attributes and leaf children into t's fields, unknown ones skipped. A
// <mapping> child goes to mapping, when it is not nil. A repeated field
// keeps its last value, as it did with encoding/xml.
func readElement[T any](p *parser, name string, fields []field[T], t *T, mapping func()) {
	set := func(isLeaf bool, key, v string) {
		for _, f := range fields {
			if f.name == key && (f.kind == leaf) == isLeaf {
				p.value(f.ptr(t), key, v)
			}
		}
	}
	p.tag(set)
	for p.err == nil {
		if p.space(); p.lit("</") {
			p.expect(name)
			p.expect(">")
			return
		}
		p.expect("<")
		child := p.name()
		if child == "mapping" && mapping != nil {
			mapping()
			continue
		}
		p.tag(nil)
		v := p.text('<')
		p.expect("</")
		p.expect(child)
		p.expect(">")
		set(true, child, v)
	}
}

// tag reads the attributes of a start tag whose name is read, up to its
// '>', passing them to set unless it is nil.
func (p *parser) tag(set func(isLeaf bool, name, v string)) {
	for p.err == nil {
		start := p.i
		if p.space(); p.lit(">") {
			return
		} else if p.i == start {
			p.fail("want a space before an attribute")
		}
		name := p.name()
		p.expect(`="`)
		if v := p.text('"'); p.lit(`"`) && set != nil {
			set(false, name, v)
		}
	}
}

// value parses s into *v, the field called name. An empty capability or
// time is the zero value.
func (p *parser) value(v any, name, s string) {
	var err error
	switch v := v.(type) {
	case *string:
		*v = s
	case *int:
		*v, err = strconv.Atoi(s)
	case *int64:
		*v, err = strconv.ParseInt(s, 10, 64)
	case *float64:
		*v, err = strconv.ParseFloat(s, 64)
	case *time.Time:
		if *v = (time.Time{}); s != "" {
			*v, err = time.Parse(time.RFC3339, s)
		}
	case *ibp.Cap:
		if *v = (ibp.Cap{}); s != "" {
			*v, err = ibp.ParseCap(s)
		}
	}
	if err != nil {
		p.fail("bad %s: %w", name, err)
	}
}

// name reads an ASCII name; namespace prefixes are outside the subset.
func (p *parser) name() string {
	start := p.i
	for ; p.i < len(p.s); p.i++ {
		c := p.s[p.i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' ||
			p.i > start && ('0' <= c && c <= '9' || c == '-' || c == '.')) {
			break
		}
	}
	if p.i == start {
		p.fail("want a name")
	}
	return p.s[start:p.i]
}

// text reads character data up to the end byte and decodes references.
// Text without references is a substring of the input, not a copy.
func (p *parser) text(end byte) string {
	start, buf := p.i, []byte(nil)
	for ; p.err == nil && p.i < len(p.s) && p.s[p.i] != end; p.i++ {
		switch c := p.s[p.i]; {
		case c == '<' || c == '>' || c == '\r' || c < 0x20 && c != '\t' && c != '\n':
			p.fail("character %q in text", c)
		case c == '&':
			ref, _, found := strings.Cut(p.s[p.i+1:], ";")
			r, ok := entities[ref]
			if num, isNum := strings.CutPrefix(ref, "#"); isNum {
				n, err := strconv.ParseUint(num, 10, 32)
				if hex, isHex := strings.CutPrefix(num, "x"); isHex {
					n, err = strconv.ParseUint(hex, 16, 32)
				}
				r, ok = rune(n), err == nil && isXMLChar(rune(n))
			}
			if !ok || !found {
				p.fail("bad reference")
				break
			}
			buf = utf8.AppendRune(append(buf, p.s[start:p.i]...), r)
			p.i += len(ref) + 1 // on the ';', which the loop steps past
			start = p.i + 1
		}
	}
	if p.i == len(p.s) {
		p.fail("unterminated text")
	}
	if buf == nil {
		return p.s[start:p.i]
	}
	return string(append(buf, p.s[start:p.i]...))
}

// entities are XML's predefined entities.
var entities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

func (p *parser) space() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\n' || p.s[p.i] == '\t' || p.s[p.i] == '\r') {
		p.i++
	}
}

func (p *parser) lit(s string) bool {
	ok := p.err == nil && strings.HasPrefix(p.s[p.i:], s)
	if ok {
		p.i += len(s)
	}
	return ok
}

func (p *parser) expect(s string) {
	if !p.lit(s) {
		p.fail("want %q", s)
	}
}

// Write serializes x to w.
func Write(w io.Writer, x *ExNode) error {
	data, err := Marshal(x)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Read parses an exNode from r.
func Read(r io.Reader) (*ExNode, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("exnode: read: %w", err)
	}
	return Unmarshal(data)
}
