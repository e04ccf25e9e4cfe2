package core_test

import (
	"bytes"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/depot"
	"repro/internal/exnode"
	"repro/internal/faultnet"
	"repro/internal/geo"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/sealing"
	"repro/internal/testbed"
)

// Example shows the complete life of a file on the Network Storage Stack:
// upload as a striped+replicated exNode, share via XML, download.
func Example() {
	// Storage owners run depots; here, two in-process ones.
	reg := lbone.NewRegistry(0, nil)
	for i, site := range []geo.Site{geo.UTK, geo.UCSD} {
		d, err := depot.Serve("127.0.0.1:0", depot.Config{
			Secret:   []byte{byte(i), 10, 20, 30},
			Capacity: 32 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		reg.Register(lbone.DepotInfo{
			Addr: d.Addr(), Name: site.Name + "-depot", Site: site.Name, Loc: site.Loc,
			Capacity: 32 << 20, MaxDuration: time.Hour,
		})
	}

	tools := &core.Tools{
		IBP:   ibp.NewClient(),
		LBone: core.RegistrySource{Reg: reg},
		Site:  geo.UTK.Name,
		Loc:   geo.UTK.Loc,
	}

	data := bytes.Repeat([]byte("exnode "), 1024)
	x, err := tools.Upload("demo.dat", data, core.UploadOptions{
		Replicas:  2,
		Fragments: 2,
		Duration:  time.Hour,
		Checksum:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The exNode is plain XML: serialize, "mail it to a friend", parse.
	blob, err := exnode.Marshal(x)
	if err != nil {
		log.Fatal(err)
	}
	shared, err := exnode.Unmarshal(blob)
	if err != nil {
		log.Fatal(err)
	}

	got, _, err := tools.Download(shared, core.DownloadOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("replicas:", shared.Replicas())
	fmt.Println("round trip ok:", bytes.Equal(got, data))
	// Output:
	// replicas: 2
	// round trip ok: true
}

// fleet starts a testbed with one depot per spec and a Logistical Tools
// client at site that dials through the testbed's simulated WAN on its
// virtual clock.
func fleet(seed int64, site geo.Site, specs ...testbed.Spec) (*testbed.Testbed, *core.Tools) {
	tb, err := testbed.New(seed, specs...)
	if err != nil {
		log.Fatal(err)
	}
	return tb, toolsAt(tb, site)
}

func toolsAt(tb *testbed.Testbed, site geo.Site) *core.Tools {
	return &core.Tools{
		IBP: ibp.NewClient(
			ibp.WithDialer(tb.Model.DialerFrom(site.Name)),
			ibp.WithClock(tb.Clock),
			ibp.WithDialTimeout(2*time.Second),
		),
		LBone: core.RegistrySource{Reg: tb.Registry},
		Clock: tb.Clock,
		Site:  site.Name,
		Loc:   site.Loc,
	}
}

// must stops an example at its first error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// depotNames lists, in order of first appearance, the depots x names.
func depotNames(x *exnode.ExNode) []string {
	var out []string
	for _, m := range x.Mappings {
		if !slices.Contains(out, m.Depot) {
			out = append(out, m.Depot)
		}
	}
	return out
}

// ExampleTools_Download shows fault-tolerant downloads from a striped,
// replicated exNode, as in the paper's Tests 2 and 3. A 2 MiB file is
// striped into four fragments with three replicas across depots at four
// sites. Depots are then killed one by one: the download fails over
// between replicas per extent until some extent has lost every replica.
func ExampleTools_Download() {
	sites := []geo.Site{geo.UTK, geo.UCSD, geo.UCSB, geo.Harvard}
	var specs []testbed.Spec
	for _, s := range sites {
		specs = append(specs, testbed.Spec{Name: s.Name, Site: s})
	}
	tb, tools := fleet(1, geo.UTK, specs...)
	defer tb.Close()
	tb.Model.SetDefaultLink(faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 10})

	data := bytes.Repeat([]byte{0xA5, 0x5A, 0x33, 0xCC}, 512<<10)
	x := must(tools.Upload("replicated.dat", data, core.UploadOptions{
		Replicas: 3, Fragments: 4, Duration: 12 * time.Hour, Checksum: true,
	}))
	fmt.Printf("%d bytes: %d replicas x 4 fragments on %v\n", len(data), x.Replicas(), depotNames(x))

	try := func(label string) {
		got, rep, err := tools.Download(x, core.DownloadOptions{})
		avail := core.Availability(tools.List(x))
		switch {
		case err != nil:
			fmt.Printf("%-13s download failed; %.0f%% of segments available\n", label, avail)
		case !bytes.Equal(got, data):
			log.Fatal("data corruption")
		default:
			fmt.Printf("%-13s download ok, %d failovers; %.0f%% of segments available\n", label, rep.Failovers, avail)
		}
	}
	try("all up:")
	for _, s := range sites {
		tb.Kill(s.Name, 100*time.Hour)
		try(s.Name + " down:")
	}
	// Output:
	// 2097152 bytes: 3 replicas x 4 fragments on [UTK HARVARD UCSD UCSB]
	// all up:       download ok, 0 failovers; 100% of segments available
	// UTK down:     download ok, 3 failovers; 75% of segments available
	// UCSD down:    download ok, 4 failovers; 50% of segments available
	// UCSB down:    download failed; 25% of segments available
	// HARVARD down: download failed; 0% of segments available
}

// ExampleTools_UploadRS stores one file three ways (the paper's §4 future
// work): three full replicas, a Reed-Solomon (4,2) coding group and XOR
// parity over four blocks, on six depots. Two depots are then killed one
// at a time: the RS group decodes from any four surviving blocks at a
// quarter of the replicas' storage, and XOR parity survives one loss.
func ExampleTools_UploadRS() {
	var specs []testbed.Spec
	for i := 1; i <= 6; i++ {
		specs = append(specs, testbed.Spec{Name: fmt.Sprintf("D%d", i), Site: geo.UTK})
	}
	tb, tools := fleet(2, geo.UTK, specs...)
	defer tb.Close()

	data := bytes.Repeat([]byte("reed-solomon "), 115_000) // ~1.5 MB
	coding := core.CodedOptions{DataBlocks: 4, ParityBlocks: 2, Checksum: true, Duration: time.Hour}
	xor := coding
	xor.ParityBlocks = 0
	files := []struct {
		label string
		x     *exnode.ExNode
	}{
		{"3 replicas", must(tools.Upload("replicated", data, core.UploadOptions{Replicas: 3, Checksum: true, Duration: time.Hour}))},
		{"RS (4,2)", must(tools.UploadRS("rs-coded", data, coding))},
		{"XOR (4+1)", must(tools.UploadXOR("xor-coded", data, xor))},
	}
	for _, f := range files {
		var stored int64
		for _, m := range f.x.Mappings {
			if m.IsReplica() {
				stored += m.Length
			} else {
				stored += m.BlockSize
			}
		}
		fmt.Printf("%-10s stores %7d bytes, %3.0f%% overhead\n", f.label, stored,
			100*float64(stored-int64(len(data)))/float64(len(data)))
	}
	check := func(label string) {
		fmt.Print(label)
		for _, f := range files {
			got, rep, err := tools.Download(f.x, core.DownloadOptions{})
			switch {
			case err != nil:
				fmt.Printf("  %s: FAILED", f.label)
			case !bytes.Equal(got, data):
				log.Fatalf("%s: decode mismatch", f.label)
			case rep.Extents[0].Coded:
				fmt.Printf("  %s: decoded", f.label)
			default:
				fmt.Printf("  %s: ok", f.label)
			}
		}
		fmt.Println()
	}
	check("all up:")
	for i, name := range []string{"D1", "D2"} {
		tb.Kill(name, 100*time.Hour)
		check(fmt.Sprintf("%d down:", i+1))
	}
	// Output:
	// 3 replicas stores 4485000 bytes, 200% overhead
	// RS (4,2)   stores 2242500 bytes,  50% overhead
	// XOR (4+1)  stores 1868750 bytes,  25% overhead
	// all up:  3 replicas: ok  RS (4,2): decoded  XOR (4+1): decoded
	// 1 down:  3 replicas: ok  RS (4,2): decoded  XOR (4+1): decoded
	// 2 down:  3 replicas: ok  RS (4,2): decoded  XOR (4+1): FAILED
}

// ExampleTools_Route moves a file through the network with augment and
// trim (paper §2.3: "First it is augmented so that it has replicas near
// the desired location, then it is trimmed so that the old replicas are
// deleted"). A file stored at UTK is routed to a consumer at Harvard over
// a slow transcontinental link, and its time limits are then refreshed.
func ExampleTools_Route() {
	tb, utk := fleet(3, geo.UTK,
		testbed.Spec{Name: "UTK-depot", Site: geo.UTK},
		testbed.Spec{Name: "HARVARD-depot", Site: geo.Harvard})
	defer tb.Close()
	tb.Model.SetLink(geo.UTK.Name, geo.Harvard.Name, faultnet.Link{RTT: 40 * time.Millisecond, Mbps: 2})
	harvard := toolsAt(tb, geo.Harvard)

	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 128<<10) // 1 MiB
	near := geo.UTK.Loc
	x := must(utk.Upload("dataset.dat", data, core.UploadOptions{
		Near: &near, Duration: 6 * time.Hour, Checksum: true,
	}))
	fetch := func(t *core.Tools) (string, time.Duration) {
		got, rep, err := t.Download(x, core.DownloadOptions{})
		if err != nil || !bytes.Equal(got, data) {
			log.Fatalf("download from %s: %v", t.Site, err)
		}
		return rep.Extents[0].Depot, rep.Duration
	}
	before, slow := fetch(harvard)
	fmt.Printf("stored at %v; Harvard reads from %s\n", depotNames(x), before)

	x = must(harvard.Route(x, geo.Harvard.Loc, core.AugmentOptions{
		Replicas: 1, Duration: 6 * time.Hour, Checksum: true,
	}))
	after, fast := fetch(harvard)
	fmt.Printf("routed to %v; Harvard reads from %s, at least 10x faster: %v\n",
		depotNames(x), after, fast*10 <= slow)
	utkFrom, _ := fetch(utk)
	fmt.Printf("UTK now reads from %s\n", utkFrom)

	n := must(harvard.Refresh(x, 24*time.Hour))
	fmt.Printf("refreshed %d segment(s) to expire %v\n", n, x.Mappings[0].Expires.Sub(tb.Clock.Now()).Round(time.Hour))
	// Output:
	// stored at [UTK-depot]; Harvard reads from UTK-depot
	// routed to [HARVARD-depot]; Harvard reads from HARVARD-depot, at least 10x faster: true
	// UTK now reads from HARVARD-depot
	// refreshed 1 segment(s) to expire 24h0m0s
}

// ExampleTools_Upload_encrypted seals a file with AES-256-CTR before
// upload (the paper's §4 future work: "unencrypted data does not have to
// travel over the network, or be stored by IBP servers"). The depots and
// the wire only ever see ciphertext; the exNode carries the cipher name and
// IV, and the key travels out of band. Range downloads decrypt just the
// bytes they fetch.
func ExampleTools_Upload_encrypted() {
	tb, tools := fleet(4, geo.UTK,
		testbed.Spec{Name: "UTK-depot", Site: geo.UTK},
		testbed.Spec{Name: "UCSD-depot", Site: geo.UCSD})
	defer tb.Close()

	key := sealing.DeriveKey("a passphrase shared out of band")
	secret := bytes.Repeat([]byte("TOP SECRET DATA "), 8192) // 128 KiB
	x := must(tools.Upload("classified.dat", secret, core.UploadOptions{
		Replicas:      2,
		EncryptionKey: key,
		Checksum:      true, // digests cover ciphertext: verifiable without the key
		Duration:      time.Hour,
	}))
	fmt.Printf("sealed with %s\n", x.Cipher)

	// What a depot holds is not the plaintext.
	raw := must(tools.IBP.Load(x.Mappings[0].Read, 0, 32))
	fmt.Println("depot holds plaintext:", bytes.Equal(raw, secret[:32]))

	// A keyless download is refused client-side.
	_, _, err := tools.Download(x, core.DownloadOptions{})
	fmt.Println("keyless download refused:", err != nil)

	got, _, err := tools.DownloadRange(x, 16, 15, core.DownloadOptions{DecryptionKey: key})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range [16,31) with key: %q\n", got)

	// The exNode XML shows an eavesdropper capabilities and the cipher
	// name, nothing decryptable.
	blob := must(exnode.Marshal(x))
	fmt.Println("exNode XML contains plaintext:", bytes.Contains(blob, []byte("TOP SECRET")))

	all, _, err := tools.Download(x, core.DownloadOptions{DecryptionKey: key})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("full decrypt round trip:", bytes.Equal(all, secret))
	// Output:
	// sealed with aes256-ctr
	// depot holds plaintext: false
	// keyless download refused: true
	// range [16,31) with key: "TOP SECRET DATA"
	// exNode XML contains plaintext: false
	// full decrypt round trip: true
}
