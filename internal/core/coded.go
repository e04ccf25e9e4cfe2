package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bufpool"
	"repro/internal/erasure"
	"repro/internal/exnode"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
)

// This file implements the paper's §4 future work: "with parity coding
// blocks, we can equip the exnodes with the ability to use RAID techniques
// to perform fault-tolerant downloads without requiring full replication.
// To reduce storage needs further, Reed-Solomon coding may be employed as
// well."

// CodedOptions parameterize coded uploads.
type CodedOptions struct {
	// DataBlocks (k) and ParityBlocks (m): any k of k+m blocks rebuild
	// the data. For XOR parity m is forced to 1.
	DataBlocks   int
	ParityBlocks int
	// Duration, Reliability, Depots, Checksum as in UploadOptions.
	Duration    time.Duration
	Reliability ibp.Reliability
	Depots      []lbone.DepotInfo
	Checksum    bool
}

// UploadRS stores data as one Reed-Solomon coding group of k data and m
// parity blocks, each on its own depot when enough are available.
func (t *Tools) UploadRS(name string, data []byte, opts CodedOptions) (*exnode.ExNode, error) {
	if opts.DataBlocks <= 0 {
		return nil, errors.New("core: coded upload needs DataBlocks >= 1")
	}
	if opts.ParityBlocks <= 0 {
		return nil, errors.New("core: coded upload needs ParityBlocks >= 1")
	}
	rs, err := erasure.NewRS(opts.DataBlocks, opts.ParityBlocks)
	if err != nil {
		return nil, err
	}
	blocks := erasure.Split(data, opts.DataBlocks)
	parity, err := rs.Encode(blocks)
	if err != nil {
		return nil, err
	}
	return t.uploadCodingGroup(name, data, blocks, parity, exnode.FuncRSParity, opts)
}

// UploadXOR stores data as k data blocks plus one XOR parity block — the
// RAID-5 scheme, tolerating any single block loss at 1/k storage overhead.
func (t *Tools) UploadXOR(name string, data []byte, opts CodedOptions) (*exnode.ExNode, error) {
	if opts.DataBlocks <= 0 {
		return nil, errors.New("core: coded upload needs DataBlocks >= 1")
	}
	opts.ParityBlocks = 1
	blocks := erasure.Split(data, opts.DataBlocks)
	parity, err := erasure.XORParity(blocks)
	if err != nil {
		return nil, err
	}
	return t.uploadCodingGroup(name, data, blocks, [][]byte{parity}, exnode.FuncParity, opts)
}

// uploadCodingGroup places the k+m blocks of one coding group. Every block
// protects the whole file, so the placer keeps all of them on different
// depots: block i starts at depots[i%len] and fails over round the list.
func (t *Tools) uploadCodingGroup(name string, data []byte, blocks, parity [][]byte, parityFn exnode.Function, opts CodedOptions) (*exnode.ExNode, error) {
	depots, err := t.placementDepots("coded upload", opts.Depots, opts.Duration, nil)
	if err != nil {
		return nil, err
	}
	k, m := len(blocks), len(parity)
	group := codingGroupID(name, 0)
	x := exnode.New(name, int64(len(data)))
	x.Created = t.clock().Now()
	all := append(append([][]byte{}, blocks...), parity...)
	plan := make([]planJob, len(all))
	for i := range plan {
		plan[i] = planJob{j: i, ext: exnode.Extent{End: x.Size}}
	}
	jobs := placeJobs(plan, depots, PlacementRotate)
	for i := range jobs {
		jobs[i].payload = all[i]
	}
	x.Mappings, err = t.placeAll(fmt.Sprintf("coded upload %q", name), jobs, nil, UploadOptions{
		Duration: opts.Duration, Reliability: opts.Reliability, Checksum: opts.Checksum,
	})
	for i, mp := range x.Mappings {
		mp.Function = exnode.FuncRSData
		if i >= k {
			mp.Function = parityFn
		}
		mp.Group, mp.BlockIndex = group, i
		mp.DataBlocks, mp.ParityBlocks, mp.BlockSize = k, m, int64(len(all[i]))
	}
	return validated(x, err)
}

func codingGroupID(name string, n int) string {
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, name)
	return fmt.Sprintf("%s.g%d", clean, n)
}

// recoverFromCoding rebuilds extent ext from a coding group covering it,
// loading at least k of its blocks and decoding. It returns a display name
// describing the recovery source.
func (t *Tools) recoverFromCoding(x *exnode.ExNode, ext exnode.Extent, dst []byte, opts DownloadOptions, sc obs.SpanContext) (string, error) {
	lastErr := errors.New("core: no coding group covers the extent")
	for _, ms := range x.CodingGroups() {
		g := ms[0]
		if !(g.Offset <= ext.Start && ext.End <= g.Offset+g.Length) {
			continue // group does not protect this extent
		}
		data, err := t.decodeGroupShared(ms, opts, sc)
		if err != nil {
			lastErr = err
			continue
		}
		copy(dst, data[ext.Start-g.Offset:ext.End-g.Offset])
		return fmt.Sprintf("coded(%s)", g.Group), nil
	}
	return "", lastErr
}

// decodeGroupShared collapses concurrent decodes of one coding group
// through the transfer engine's singleflight: parallel extent workers (or
// readahead fetches) that all lost their replicas pay for one decode — k
// block loads — instead of k loads each. The shared slice is copied out by
// every caller and never written.
func (t *Tools) decodeGroupShared(ms []*exnode.Mapping, opts DownloadOptions, sc obs.SpanContext) ([]byte, error) {
	if t.Transfer == nil {
		return t.decodeGroup(ms, opts, sc)
	}
	data, shared, err := t.Transfer.GroupDo(ms[0].Group, func() ([]byte, error) {
		return t.decodeGroup(ms, opts, sc)
	})
	if shared {
		t.logf("core: coded group %s: reused a concurrent decode", ms[0].Group)
	}
	return data, err
}

// decodeGroup loads the group's surviving blocks, in BlockIndex order, and
// reconstructs the original group payload. All k data blocks are simply
// joined; otherwise the code is the one a remaining parity mapping names —
// never guessed, since Maintain may have trimmed every parity mapping.
func (t *Tools) decodeGroup(ms []*exnode.Mapping, opts DownloadOptions, sc obs.SpanContext) ([]byte, error) {
	g := ms[0]
	k, m := g.DataBlocks, g.ParityBlocks
	blocks := make([][]byte, k+m)
	defer func() {
		for _, b := range blocks {
			bufpool.Put(b) // a nil (missing) block is ignored
		}
	}()
	var code exnode.Function
	for _, mp := range ms {
		if mp.Function != exnode.FuncRSData {
			code = mp.Function
		}
		if allDataPresent(blocks, k) {
			continue
		}
		if mp.BlockIndex < 0 || mp.BlockIndex >= len(blocks) || blocks[mp.BlockIndex] != nil {
			continue
		}
		buf := bufpool.Get(int(mp.BlockSize))
		if err := t.load(mp, 0, buf, opts, nil, sc); err != nil {
			bufpool.Put(buf)
			t.logf("core: coded block %d (%s) unusable: %v", mp.BlockIndex, mp.Depot, err)
			continue
		}
		blocks[mp.BlockIndex] = buf
	}
	var dataBlocks [][]byte
	var err error
	switch {
	case allDataPresent(blocks, k):
		dataBlocks = blocks[:k]
	case code == exnode.FuncRSParity:
		rs, rerr := erasure.NewRS(k, m)
		if rerr != nil {
			return nil, rerr
		}
		dataBlocks, err = rs.Decode(blocks)
	case code == exnode.FuncParity:
		dataBlocks, err = erasure.XORRecover(blocks)
	default:
		err = fmt.Errorf("core: coded group %s: data blocks missing and no parity mapping left to name the code", g.Group)
	}
	if err != nil {
		return nil, err
	}
	return erasure.Join(dataBlocks, int(g.Length)), nil
}

func allDataPresent(blocks [][]byte, k int) bool {
	for i := 0; i < k; i++ {
		if blocks[i] == nil {
			return false
		}
	}
	return true
}
