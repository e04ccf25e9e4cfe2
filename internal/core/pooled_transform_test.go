package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/sealing"
	"repro/internal/transfer"
)

// The client's seal, code and hash stages work on pooled buffers: a sealed
// or coded transfer allocates no file-sized buffer on the heap. These
// tests bound the heap bytes an operation allocates per file byte, read as
// runtime TotalAlloc deltas over warmed runs. That counts every goroutine
// of the process, the in-process depots included, so it is an upper bound
// on the client's share. Under -race sync.Pool drops buffers at random,
// and only the bytes are checked.

// pooledTools is e.tools at UTK with a client that keeps its connections:
// a dial costs both ends a 32 KiB bufio pair, which would measure the
// dials rather than the transforms.
func pooledTools(e *env) *Tools {
	tl := e.tools(geo.UTK, false)
	tl.IBP = ibp.NewClient(
		ibp.WithDialer(e.Model.DialerFrom(geo.UTK.Name)),
		ibp.WithClock(e.Clock),
		ibp.WithPooling(8),
	)
	e.t.Cleanup(func() { tl.IBP.Close() })
	return tl
}

// heapBytesPerFileByte runs op twice to warm the pools and connections,
// then nine times more, and returns the median run's heap bytes per byte
// of a fileSize-byte file. A file-sized copy on the path shows in every
// run; a pool miss shows in one: sync.Pool keeps a buffer put on one P
// where a Get on another cannot see it, and a depot may put a deleted
// allocation's buffer back just after its answer.
func heapBytesPerFileByte(fileSize int, op func()) float64 {
	op()
	op()
	// Two collections empty sync.Pool: hold the collector off meanwhile.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runs := make([]uint64, 9)
	var before, after runtime.MemStats
	for i := range runs {
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		runs[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(runs)
	return float64(runs[len(runs)/2]) / float64(fileSize)
}

// requireHeapBound fails when an operation allocated bound or more heap
// bytes per file byte; a -race build only logs the figure.
func requireHeapBound(t *testing.T, what string, perByte, bound float64) {
	t.Helper()
	t.Logf("%s: %.4f heap bytes per file byte", what, perByte)
	if !raceEnabled && perByte >= bound {
		t.Fatalf("%s allocates %.3f heap bytes per file byte, want < %.1f: a file-sized copy is on the path", what, perByte, bound)
	}
}

// TestSealedWholeReplicaDownloadAllocs: a sealed download decrypts in the
// download's own pooled buffer, where it used to unseal into a fresh
// file-sized plaintext.
func TestSealedWholeReplicaDownloadAllocs(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := pooledTools(e)
	key := sealing.DeriveKey("pooled transforms")
	data := payload(1 << 20)
	x, err := tl.Upload("sealed", data, UploadOptions{EncryptionKey: key, Depots: e.infosFor("A")})
	if err != nil {
		t.Fatal(err)
	}
	perByte := heapBytesPerFileByte(len(data), func() {
		got, _, err := tl.Download(x, DownloadOptions{DecryptionKey: key})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("sealed download mismatch")
		}
		bufpool.Put(got)
	})
	requireHeapBound(t, "sealed download", perByte, 0.1)
}

// rsEnv uploads a 1 MiB file as one RS 3+2 group on five depots, D1 to D5,
// with a client that keeps no connection, and kills the named depots.
// The pooled client it returns holds no connection to a killed depot: a
// parked one would outlive the kill.
func rsEnv(t *testing.T, kill ...string) (*env, *Tools, []byte, *exnode.ExNode) {
	t.Helper()
	e := newEnv(t)
	names := []string{"D1", "D2", "D3", "D4", "D5"}
	for _, n := range names {
		e.addDepot(n, geo.UTK, nil)
	}
	data := payload(1 << 20)
	x, err := e.tools(geo.UTK, false).UploadRS("rs", data, CodedOptions{
		DataBlocks: 3, ParityBlocks: 2, Checksum: true, Depots: e.infosFor(names...),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range kill {
		e.Kill(n, 1000*time.Hour)
	}
	return e, pooledTools(e), data, x
}

// TestDecodedDownloadAllocs: with one data block's depot down, an RS 3+2
// download loads the two surviving data blocks into their places in one
// pooled buffer and rebuilds the third there, where it used to allocate
// the rebuilt block and then join the file into a fresh buffer.
func TestDecodedDownloadAllocs(t *testing.T) {
	_, tl, data, x := rsEnv(t, "D1")
	if x.Mappings[0].Depot != "D1" {
		t.Fatalf("data block 0 is on %s, not D1", x.Mappings[0].Depot)
	}
	perByte := heapBytesPerFileByte(len(data), func() {
		got, rep, err := tl.Download(x, DownloadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) || !rep.Extents[0].Coded {
			t.Fatal("decoded download mismatch")
		}
		bufpool.Put(got)
	})
	requireHeapBound(t, "RS 3+2 download with a data block lost", perByte, 0.1)
}

// TestSealedAndCodedUploadAllocs: a sealed upload encrypts into a pooled
// buffer, and an RS 3+2 upload slices its data blocks out of the file and
// encodes parity into pooled buffers. Each upload is deleted again, so
// every round starts with the depots empty.
func TestSealedAndCodedUploadAllocs(t *testing.T) {
	deleteAll := func(t *testing.T, tl *Tools, x *exnode.ExNode) {
		for _, m := range x.Mappings {
			if _, err := tl.IBP.Delete(m.Manage); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("sealed", func(t *testing.T) {
		e := newEnv(t)
		e.addDepot("A", geo.UTK, nil)
		tl := pooledTools(e)
		key := sealing.DeriveKey("pooled transforms")
		data := payload(1 << 20)
		perByte := heapBytesPerFileByte(len(data), func() {
			x, err := tl.Upload("sealed", data, UploadOptions{
				EncryptionKey: key, Checksum: true, Depots: e.infosFor("A"),
			})
			if err != nil {
				t.Fatal(err)
			}
			deleteAll(t, tl, x)
		})
		requireHeapBound(t, "sealed upload", perByte, 0.2)
	})
	t.Run("rs", func(t *testing.T) {
		e, tl, data, x := rsEnv(t)
		deleteAll(t, tl, x)
		perByte := heapBytesPerFileByte(len(data), func() {
			x, err := tl.UploadRS("rs", data, CodedOptions{
				DataBlocks: 3, ParityBlocks: 2, Checksum: true, Depots: e.infosFor("D1", "D2", "D3", "D4", "D5"),
			})
			if err != nil {
				t.Fatal(err)
			}
			deleteAll(t, tl, x)
		})
		requireHeapBound(t, "RS 3+2 upload", perByte, 0.2)
	})
}

// TestSharedDecodeConcurrentReaders: eight readers that all lose a data
// block's replica at once share decodes through one transfer engine. Every
// reader gets the file, and every pool buffer the reads borrowed is back
// once they are done: a shared result put back twice would leave fewer
// buffers outstanding than before, one never put back more.
func TestSharedDecodeConcurrentReaders(t *testing.T) {
	e, tl, data, x := rsEnv(t, "D2")
	if x.Mappings[1].Depot != "D2" {
		t.Fatalf("data block 1 is on %s, not D2", x.Mappings[1].Depot)
	}
	tl.Transfer = transfer.New(transfer.Config{Clock: e.Clock})
	before := outstandingBuffers()

	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, _, err := tl.Download(x, DownloadOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Error("shared decode: downloaded bytes mismatch")
			}
			bufpool.Put(got)
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if c := tl.Transfer.Counters(); c.SingleflightLeaders == 0 || c.SingleflightLeaders+c.SingleflightShared != readers {
		t.Fatalf("singleflight counters %+v, want %d decode calls", c, readers)
	}
	if after := outstandingBuffers(); after != before {
		t.Fatalf("%d pool buffers outstanding after %d shared-decode reads, %d before them", after, readers, before)
	}
}

// TestUploadJoinsDigestHashesOnRefusal: a checksummed upload hashes its
// payloads beside its STOREs, and returns only once every hash has
// finished, the failed upload too, so the caller may reuse its buffer at
// once. -race cannot see the hash's reads, which crypto/sha256 makes in
// assembly, so the test also looks for a digest goroutine still running
// when Upload returns: hashing 4 MiB outlasts two refused dials by far.
func TestUploadJoinsDigestHashesOnRefusal(t *testing.T) {
	e := newEnv(t)
	for _, n := range []string{"A", "B"} {
		e.addDepot(n, geo.UTK, nil)
		e.Kill(n, time.Hour) // each refuses the connection, before any payload byte
	}
	tl := e.tools(geo.UTK, false)
	data := payload(4 << 20)
	if _, err := tl.Upload("refused", data, UploadOptions{
		Replicas: 2, Fragments: 2, Parallelism: 4, Checksum: true, Depots: e.infosFor("A", "B"),
	}); err == nil {
		t.Fatal("upload onto depots that are down succeeded")
	}
	for i := range data {
		data[i] = 0xA5 // the caller reuses its buffer
	}
	stacks := make([]byte, 8<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if bytes.Contains(stacks, []byte("core.digests")) {
		t.Fatal("a digest goroutine outlived the failed upload")
	}
}
