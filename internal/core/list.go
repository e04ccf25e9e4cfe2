package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/exnode"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/nws"
)

// ListEntry describes one segment of an exNode, as printed by the xnd_ls
// tool (paper Figure 7).
type ListEntry struct {
	Index     int
	Mapping   *exnode.Mapping
	Available bool    // probe succeeded now
	Size      int64   // stored bytes (-1 when unavailable)
	Bandwidth float64 // NWS forecast to the segment's depot, Mbit/s (0 = unknown)
	Expires   time.Time
	probeErr  error // the manage-capability probe's outcome (nil = answered)
}

// List probes every mapping of the exNode and reports availability, size,
// bandwidth forecast and expiration per segment (paper §2.3 "List: much
// like the Unix ls command").
func (t *Tools) List(x *exnode.ExNode) []ListEntry {
	entries := make([]ListEntry, len(x.Mappings))
	for i, m := range x.Mappings {
		e := ListEntry{Index: i, Mapping: m, Size: -1, Expires: m.Expires}
		info, err := t.probe(m)
		e.probeErr = err
		if err == nil {
			e.Available = true
			e.Size = info.Size
			e.Expires = info.Expires
		} else if data := t.probeByRead(m); data {
			// Read-only exnodes carry no manage cap; a 0-byte read works.
			e.Available = true
			e.Size = m.Length
		}
		if t.NWS != nil {
			if bw, ok := t.NWS.Forecast(t.Site, m.Read.Addr, nws.Bandwidth); ok {
				e.Bandwidth = bw
			}
		}
		entries[i] = e
	}
	return entries
}

// probe asks m's depot about its allocation through the manage capability.
// A depot behind an open circuit is not asked: the circuit-open error
// stands in for the answer, which is neither "up" nor "gone".
func (t *Tools) probe(m *exnode.Mapping) (ibp.AllocInfo, error) {
	if !m.Manage.IsZero() && t.healthBlocked(m.Manage.Addr) {
		return ibp.AllocInfo{}, health.ErrCircuitOpen
	}
	return t.IBP.Probe(m.Manage)
}

// probeByRead tests availability without a manage capability.
func (t *Tools) probeByRead(m *exnode.Mapping) bool {
	if m.Manage.IsZero() {
		_, err := t.IBP.Load(m.Read, 0, 0)
		return err == nil
	}
	return false
}

// Availability summarizes a List result: fraction of segments reachable.
func Availability(entries []ListEntry) float64 {
	if len(entries) == 0 {
		return 0
	}
	up := 0
	for _, e := range entries {
		if e.Available {
			up++
		}
	}
	return 100 * float64(up) / float64(len(entries))
}

// FormatList renders entries in the xnd_ls -b style of the paper's
// Figure 7: mode string, index, size (-1 if unavailable), depot, bandwidth
// forecast, expiration.
func FormatList(name string, size int64, entries []ListEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %d\n", name, name, size)
	for _, e := range entries {
		mode := formatMode(e)
		sz := e.Size
		if !e.Available {
			sz = -1
		}
		fmt.Fprintf(&b, "%s %3d %9d %-8s", mode, e.Index, sz, e.Mapping.Depot)
		if e.Available {
			fmt.Fprintf(&b, " %6.2f %s", e.Bandwidth, e.Expires.UTC().Format("Jan 2 15:04:05 2006"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatMode builds the "Srwma"/"?rwm-" flag column: S = segment
// available (? = not), then presence of read/write/manage capabilities,
// then 'a' when alive (has a future expiration).
func formatMode(e ListEntry) string {
	var b [5]byte
	b[0] = 'S'
	if !e.Available {
		b[0] = '?'
	}
	b[1], b[2], b[3] = '-', '-', '-'
	if !e.Mapping.Read.IsZero() {
		b[1] = 'r'
	}
	if !e.Mapping.Write.IsZero() {
		b[2] = 'w'
	}
	if !e.Mapping.Manage.IsZero() {
		b[3] = 'm'
	}
	b[4] = '-'
	if e.Available && !e.Expires.IsZero() {
		b[4] = 'a'
	}
	return string(b[:])
}
