package exnode

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"time"

	"repro/internal/ibp"
)

// The oracle: the encoding/xml reflection codec that Marshal and
// Unmarshal were before the hand-written codec in xml.go replaced them,
// kept verbatim so the tests can bind the two. Two rules hold between
// them (codec_test.go): whatever Unmarshal accepts, oracleUnmarshal
// accepts with an equal ExNode; and whatever oracleMarshal writes,
// Unmarshal accepts. Marshal and oracleMarshal agree byte for byte.

// xmlExNode is the reflection schema of the serialized form.
type xmlExNode struct {
	XMLName  xml.Name     `xml:"exnode"`
	Version  int          `xml:"version,attr"`
	Name     string       `xml:"name,attr"`
	Size     int64        `xml:"size,attr"`
	Created  string       `xml:"created,attr,omitempty"`
	Cipher   string       `xml:"cipher,attr,omitempty"`
	IV       string       `xml:"iv,attr,omitempty"`
	Comment  string       `xml:"comment,omitempty"`
	Mappings []xmlMapping `xml:"mapping"`
}

type xmlMapping struct {
	Function     string  `xml:"function,attr,omitempty"`
	Replica      int     `xml:"replica,attr"`
	Offset       int64   `xml:"offset,attr"`
	Length       int64   `xml:"length,attr"`
	Read         string  `xml:"read,omitempty"`
	Write        string  `xml:"write,omitempty"`
	Manage       string  `xml:"manage,omitempty"`
	Group        string  `xml:"group,omitempty"`
	BlockIndex   int     `xml:"blockindex,omitempty"`
	DataBlocks   int     `xml:"datablocks,omitempty"`
	ParityBlocks int     `xml:"parityblocks,omitempty"`
	BlockSize    int64   `xml:"blocksize,omitempty"`
	Depot        string  `xml:"depot,omitempty"`
	Expires      string  `xml:"expires,omitempty"`
	Bandwidth    float64 `xml:"bandwidth,omitempty"`
	Checksum     string  `xml:"checksum,omitempty"`
}

// oracleMarshal is the encoding/xml encoder the hand codec replaced.
func oracleMarshal(x *ExNode) ([]byte, error) {
	doc := xmlExNode{
		Version: CurrentVersion,
		Name:    x.Name,
		Size:    x.Size,
		Cipher:  x.Cipher,
		IV:      x.IV,
		Comment: x.Comment,
	}
	if !x.Created.IsZero() {
		doc.Created = x.Created.UTC().Format(time.RFC3339)
	}
	for _, m := range x.Mappings {
		xm := xmlMapping{
			Function:     string(m.Function),
			Replica:      m.Replica,
			Offset:       m.Offset,
			Length:       m.Length,
			Group:        m.Group,
			BlockIndex:   m.BlockIndex,
			DataBlocks:   m.DataBlocks,
			ParityBlocks: m.ParityBlocks,
			BlockSize:    m.BlockSize,
			Depot:        m.Depot,
			Bandwidth:    m.Bandwidth,
			Checksum:     m.Checksum,
		}
		if !m.Read.IsZero() {
			xm.Read = m.Read.String()
		}
		if !m.Write.IsZero() {
			xm.Write = m.Write.String()
		}
		if !m.Manage.IsZero() {
			xm.Manage = m.Manage.String()
		}
		if !m.Expires.IsZero() {
			xm.Expires = m.Expires.UTC().Format(time.RFC3339)
		}
		doc.Mappings = append(doc.Mappings, xm)
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("exnode: marshal: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// oracleUnmarshal is the encoding/xml parser the hand codec replaced.
func oracleUnmarshal(data []byte) (*ExNode, error) {
	var doc xmlExNode
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("exnode: unmarshal: %w", err)
	}
	if doc.Version > CurrentVersion {
		return nil, fmt.Errorf("exnode: unsupported version %d", doc.Version)
	}
	x := &ExNode{Name: doc.Name, Size: doc.Size, Comment: doc.Comment, Cipher: doc.Cipher, IV: doc.IV}
	if doc.Created != "" {
		t, err := time.Parse(time.RFC3339, doc.Created)
		if err != nil {
			return nil, fmt.Errorf("exnode: bad created time: %w", err)
		}
		x.Created = t
	}
	for i, xm := range doc.Mappings {
		m := &Mapping{
			Function:     Function(xm.Function),
			Replica:      xm.Replica,
			Offset:       xm.Offset,
			Length:       xm.Length,
			Group:        xm.Group,
			BlockIndex:   xm.BlockIndex,
			DataBlocks:   xm.DataBlocks,
			ParityBlocks: xm.ParityBlocks,
			BlockSize:    xm.BlockSize,
			Depot:        xm.Depot,
			Bandwidth:    xm.Bandwidth,
			Checksum:     xm.Checksum,
		}
		var err error
		if xm.Read != "" {
			if m.Read, err = ibp.ParseCap(xm.Read); err != nil {
				return nil, fmt.Errorf("exnode: mapping %d: %w", i, err)
			}
		}
		if xm.Write != "" {
			if m.Write, err = ibp.ParseCap(xm.Write); err != nil {
				return nil, fmt.Errorf("exnode: mapping %d: %w", i, err)
			}
		}
		if xm.Manage != "" {
			if m.Manage, err = ibp.ParseCap(xm.Manage); err != nil {
				return nil, fmt.Errorf("exnode: mapping %d: %w", i, err)
			}
		}
		if xm.Expires != "" {
			if m.Expires, err = time.Parse(time.RFC3339, xm.Expires); err != nil {
				return nil, fmt.Errorf("exnode: mapping %d: bad expires: %w", i, err)
			}
		}
		x.Add(m)
	}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}
