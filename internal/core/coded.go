package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/bufpool"
	"repro/internal/erasure"
	"repro/internal/exnode"
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
	// Duration, Depots, Checksum as in UploadOptions; blocks are stored
	// hard.
	Duration time.Duration
	Depots   []lbone.DepotInfo
	Checksum bool
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
	return t.uploadCodingGroup(name, data, rs.EncodeInto, exnode.FuncRSParity, opts)
}

// UploadXOR stores data as k data blocks plus one XOR parity block — the
// RAID-5 scheme, tolerating any single block loss at 1/k storage overhead.
func (t *Tools) UploadXOR(name string, data []byte, opts CodedOptions) (*exnode.ExNode, error) {
	if opts.DataBlocks <= 0 {
		return nil, errors.New("core: coded upload needs DataBlocks >= 1")
	}
	opts.ParityBlocks = 1
	return t.uploadCodingGroup(name, data, erasure.XORParityInto, exnode.FuncParity, opts)
}

// uploadCodingGroup encodes data into k data and m parity blocks and places
// them. Every block protects the whole file, so the placer keeps all of
// them on different depots: block i starts at depots[i%len] and fails over
// round the list. The data blocks that lie wholly inside data are slices of
// it; the padded last one and the parity blocks are pooled buffers, put
// back once the placer has returned.
func (t *Tools) uploadCodingGroup(name string, data []byte, encode func(parity, data [][]byte) error, parityFn exnode.Function, opts CodedOptions) (*exnode.ExNode, error) {
	depots, err := t.placementDepots("coded upload", opts.Depots, opts.Duration, nil)
	if err != nil {
		return nil, err
	}
	k, m := opts.DataBlocks, opts.ParityBlocks
	size := erasure.BlockSize(len(data), k)
	all := make([][]byte, k+m)
	for i := len(data) / size; i < len(all); i++ {
		all[i] = bufpool.Get(size)
		defer bufpool.Put(all[i])
	}
	erasure.SplitInto(all[:k], data)
	if err := encode(all[k:], all[:k]); err != nil {
		return nil, err
	}
	group := codingGroupID(name, 0)
	x := exnode.New(name, int64(len(data)))
	x.Created = t.clock().Now()
	plan := make([]planJob, len(all))
	for i := range plan {
		plan[i] = planJob{j: i, ext: exnode.Extent{End: x.Size}}
	}
	jobs := placeJobs(plan, depots, PlacementRotate)
	for i := range jobs {
		jobs[i].payload = all[i]
	}
	x.Mappings, err = t.placeAll(fmt.Sprintf("coded upload %q", name), jobs, nil, UploadOptions{
		Duration: opts.Duration, Checksum: opts.Checksum,
	})
	for i, mp := range x.Mappings {
		mp.Function = exnode.FuncRSData
		if i >= k {
			mp.Function = parityFn
		}
		mp.Group, mp.BlockIndex = group, i
		mp.DataBlocks, mp.ParityBlocks, mp.BlockSize = k, m, int64(size)
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
		data, release, err := t.decodeGroupShared(ms, opts, sc)
		if err != nil {
			lastErr = err
			continue
		}
		copy(dst, data[ext.Start-g.Offset:ext.End-g.Offset])
		release()
		return fmt.Sprintf("coded(%s)", g.Group), nil
	}
	return "", lastErr
}

// decodeGroupShared collapses concurrent decodes of one coding group
// through the transfer engine's singleflight: parallel extent workers (or
// readahead fetches) that all lost their replicas pay for one decode — k
// block loads — instead of k loads each. Every caller copies out of the
// shared payload, never writes it, and then calls release, exactly once;
// the last release puts the payload back in the pool.
func (t *Tools) decodeGroupShared(ms []*exnode.Mapping, opts DownloadOptions, sc obs.SpanContext) (data []byte, release func(), err error) {
	if t.Transfer == nil {
		data, err = t.decodeGroup(ms, opts, sc)
		return data, func() { bufpool.Put(data) }, err
	}
	data, release, shared, err := t.Transfer.GroupDo(ms[0].Group, func() ([]byte, error) {
		return t.decodeGroup(ms, opts, sc)
	})
	if shared {
		t.logf("core: coded group %s: reused a concurrent decode", ms[0].Group)
	}
	return data, release, err
}

// decodeGroup loads the group's surviving blocks, in BlockIndex order, and
// reconstructs the group payload into one pooled buffer, which the caller
// owns: data block i sits at i×BlockSize, so a surviving data block loads
// straight into its place, a missing one is rebuilt there, and the buffer
// is the payload without a join. When all k data blocks load, nothing is
// decoded; otherwise the code is the one a remaining parity mapping names —
// never guessed, since Maintain may have trimmed every parity mapping.
func (t *Tools) decodeGroup(ms []*exnode.Mapping, opts DownloadOptions, sc obs.SpanContext) ([]byte, error) {
	g := ms[0]
	k, m, size := g.DataBlocks, g.ParityBlocks, int(g.BlockSize)
	if int64(k)*g.BlockSize < g.Length {
		return nil, fmt.Errorf("core: coded group %s: %d blocks of %d bytes cannot hold %d", g.Group, k, size, g.Length)
	}
	out := bufpool.Get(k * size)
	data := make([][]byte, k) // data block i's place in out
	for i := range data {
		data[i] = out[i*size : (i+1)*size]
	}
	blocks := make([][]byte, k+m)
	defer func() {
		for _, b := range blocks[k:] {
			bufpool.Put(b) // a nil (missing) parity block is ignored
		}
	}()
	var code exnode.Function
	for _, mp := range ms {
		if mp.Function != exnode.FuncRSData {
			code = mp.Function
		}
		i := mp.BlockIndex
		if allDataPresent(blocks, k) || i < 0 || i >= len(blocks) || blocks[i] != nil || mp.BlockSize != g.BlockSize {
			continue
		}
		var buf []byte
		if i < k {
			buf = data[i]
		} else {
			buf = bufpool.Get(size)
		}
		if err := t.load(mp, 0, buf, opts, nil, sc); err != nil {
			if i >= k {
				bufpool.Put(buf)
			}
			t.logf("core: coded block %d (%s) unusable: %v", i, mp.Depot, err)
			continue
		}
		blocks[i] = buf
	}
	var err error
	switch {
	case allDataPresent(blocks, k):
	case code == exnode.FuncRSParity:
		var rs *erasure.RS
		if rs, err = erasure.NewRS(k, m); err == nil {
			err = rs.DecodeInto(data, blocks)
		}
	case code == exnode.FuncParity:
		err = erasure.XORRecoverInto(data, blocks)
	default:
		err = fmt.Errorf("core: coded group %s: data blocks missing and no parity mapping left to name the code", g.Group)
	}
	if err != nil {
		bufpool.Put(out)
		return nil, err
	}
	return out, nil
}

func allDataPresent(blocks [][]byte, k int) bool {
	for i := 0; i < k; i++ {
		if blocks[i] == nil {
			return false
		}
	}
	return true
}
