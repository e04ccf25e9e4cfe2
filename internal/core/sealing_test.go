package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/sealing"
)

func TestEncryptedUploadDownload(t *testing.T) {
	e := newEnv(t)
	dA := e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)
	key := sealing.DeriveKey("test passphrase")
	data := payload(64 << 10)
	x, err := tl.Upload("secret", data, UploadOptions{
		Replicas: 2, Fragments: 2, Checksum: true, EncryptionKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !x.Encrypted() || x.Cipher != sealing.CipherAES256CTR || x.IV == "" {
		t.Fatalf("cipher metadata missing: %+v", x)
	}

	// Depots only hold ciphertext: read a fragment directly via IBP.
	m := x.Mappings[0]
	raw, err := tl.IBP.Load(m.Read, 0, m.Length)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, data[:64]) {
		t.Fatal("plaintext visible on the depot")
	}
	_ = dA

	// Download with the key round-trips.
	got, _, err := tl.Download(x, DownloadOptions{DecryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decrypted download mismatch")
	}

	// Without the key the download refuses.
	if _, _, err := tl.Download(x, DownloadOptions{}); !errors.Is(err, ErrEncrypted) {
		t.Fatalf("keyless download = %v, want ErrEncrypted", err)
	}

	// Raw mode returns ciphertext.
	raw2, _, err := tl.Download(x, DownloadOptions{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw2, data) {
		t.Fatal("raw download returned plaintext")
	}

	// Wrong key yields garbage, not an error (CTR has no authentication;
	// integrity comes from the ciphertext checksums).
	bad, _, err := tl.Download(x, DownloadOptions{DecryptionKey: sealing.DeriveKey("wrong")})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bad, data) {
		t.Fatal("wrong key decrypted correctly?!")
	}
}

func TestEncryptedRangeDownload(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	key := sealing.DeriveKey("range-key")
	data := payload(50_000)
	x, err := tl.Upload("secret", data, UploadOptions{Fragments: 4, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	// Range downloads decrypt at arbitrary (non-block-aligned) offsets.
	for _, c := range []struct{ off, n int64 }{{0, 100}, {17, 33}, {12_345, 7_891}, {49_999, 1}} {
		got, _, err := tl.DownloadRange(x, c.off, c.n, DownloadOptions{DecryptionKey: key})
		if err != nil {
			t.Fatalf("range [%d,%d): %v", c.off, c.off+c.n, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("range [%d,%d) mismatch", c.off, c.off+c.n)
		}
	}
}

func TestEncryptedStreaming(t *testing.T) {
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UTK, nil)
	tl := e.tools(geo.UTK, false)
	key := sealing.DeriveKey("stream-key")
	data := payload(80_000)
	x, err := tl.Upload("secret", data, UploadOptions{Replicas: 2, Fragments: 3, EncryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := tl.OpenRangeReader(x, 0, x.Size, DownloadOptions{DecryptionKey: key})
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streamed decryption mismatch")
	}
}

func TestEncryptedAugmentWithoutKey(t *testing.T) {
	// Augment replicates sealed bytes without ever holding the key — the
	// point of encrypting before upload.
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.Harvard, nil)
	tl := e.tools(geo.UTK, false)
	key := sealing.DeriveKey("augment-key")
	data := payload(32 << 10)
	x, err := tl.Upload("secret", data, UploadOptions{Depots: e.infosFor("A"), EncryptionKey: key, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	near := geo.Harvard.Loc
	aug, err := tl.Augment(x, AugmentOptions{Replicas: 1, Near: &near, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	if !aug.Encrypted() || aug.IV != x.IV {
		t.Fatal("augmented exnode lost cipher metadata")
	}
	if aug.Replicas() != 2 {
		t.Fatalf("replicas = %d", aug.Replicas())
	}
	// The new replica decrypts with the original key.
	got, _, err := tl.Download(aug, DownloadOptions{DecryptionKey: key})
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("download after keyless augment: %v", err)
	}
	// And the XML round trip preserves cipher metadata.
	blob, err := exnode.Marshal(aug)
	if err != nil {
		t.Fatal(err)
	}
	back, err := exnode.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cipher != aug.Cipher || back.IV != aug.IV {
		t.Fatal("cipher metadata lost in XML")
	}
}
