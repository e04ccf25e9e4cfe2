package depot

import (
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// wireStep is one request on a bare connection and the reply it must draw.
type wireStep struct {
	req  string   // request line; {a.r} {a.w} {a.m} are allocation a's tokens, {a.R} {a.W} its full READ/WRITE capabilities, {a.x} a forged MANAGE token
	blob string   // payload written after the request line
	want []string // reply lines; {READ} {WRITE} {MANAGE} match a capability of that type, {ts} a server-span trailer, and an ERR line matches on its code alone
	data string   // payload that follows the reply
	save string   // names the allocation an ALLOCATE reply mints
}

// Wire compatibility is a property of the server (DESIGN §9.5): whatever
// client an old deployment runs, these request lines get these replies.
// The table drives every IBP verb — and a malformed line of each — over a
// bare framed connection, pinning each reply line. The verbs are spelled
// as on the wire, deliberately not as the packages' constants.
func TestIBPVerbWireCompatibility(t *testing.T) {
	t0 := time.Unix(1_000_000_000, 0)
	exp := func(d time.Duration) string { return wire.Itoa(t0.Add(d).Unix()) }
	const (
		caps       = "OK {READ} {WRITE} {MANAGE}"
		badReq     = "ERR BAD_REQUEST"
		notFound   = "ERR NOT_FOUND"
		mismatch   = "ERR CAP_MISMATCH"
		unsupp     = "ERR UNSUPPORTED"
		durLimit   = "ERR DURATION_LIMIT"
		quota      = "ERR QUOTA"
		outOfRange = "ERR OUT_OF_RANGE"
	)
	sessions := []struct {
		name    string
		steps   []wireStep
		dropped bool // the depot closes the connection after the last step
	}{
		{name: "every verb", dropped: true, steps: []wireStep{
			{req: "ALLOCATE 1024 3600 HARD", want: []string{caps}, save: "a"},
			{req: "ALLOCATE 1024 3600", want: []string{badReq}},
			{req: "ALLOCATE 0 3600 HARD", want: []string{badReq}},
			{req: "ALLOCATE 1024 0 HARD", want: []string{badReq}},
			{req: "ALLOCATE 1024 3600 BEST_EFFORT", want: []string{badReq}},
			{req: "ALLOCATE 1024 999999 HARD", want: []string{durLimit}},
			{req: "ALLOCATE 2097152 3600 HARD", want: []string{quota}},
			{req: "STATUS", want: []string{"OK 1048576 1024 86400 1"}},
			{req: "STATUS ignored arguments", want: []string{"OK 1048576 1024 86400 1"}},
			{req: "STORE {a.w} 5", blob: "hello", want: []string{"OK 5 5"}},
			{req: "STORE {a.w}", want: []string{badReq}},
			{req: "STORE {a.w} -1", want: []string{badReq}},
			{req: "STORE {a.r} 3", blob: "xyz", want: []string{mismatch}},
			{req: "LOAD {a.r} 1 3", want: []string{"OK 3"}, data: "ell"},
			{req: "LOAD {a.r} x 3", want: []string{badReq}},
			{req: "LOAD {a.r} 4 3", want: []string{outOfRange}},
			{req: "LOAD {a.w} 0 1", want: []string{mismatch}},
			{req: "PROBE {a.m}", want: []string{"OK 1024 5 " + exp(time.Hour) + " HARD 1"}},
			{req: "PROBE", want: []string{badReq}},
			{req: "PROBE {a.x}", want: []string{"ERR DENIED"}},
			{req: "EXTEND {a.m} 7200", want: []string{"OK " + exp(2*time.Hour)}},
			{req: "EXTEND {a.m} 0", want: []string{badReq}},
			{req: "EXTEND {a.m} 999999", want: []string{durLimit}},
			{req: "ALLOCATE 64 3600 SOFT", want: []string{caps}, save: "b"},
			{req: "COPY {a.r} 0 5 {b.W}", want: []string{"OK 5 5"}},
			{req: "COPY {a.r} 0 5", want: []string{badReq}},
			{req: "COPY {a.r} 0 5 {b.R}", want: []string{badReq}},
			{req: "TRACE 0123456789abcdef 01234567 1", want: []string{"OK"}},
			{req: "PROBE {b.m}", want: []string{"OK 64 5 " + exp(time.Hour) + " SOFT 1 {ts}"}},
			{req: "TRACE 0123456789abcdef", want: []string{badReq}},
			{req: "PROBE {b.m}", want: []string{"OK 64 5 " + exp(time.Hour) + " SOFT 1"}},
			{req: "BATCH 4", want: []string{"OK 4"}},
			{req: "ALLOCATE 128 3600 HARD", want: []string{caps}, save: "c"},
			{req: "STORE @0 3", blob: "abc", want: []string{"OK 3 3"}},
			{req: "LOAD @0 0 3", want: []string{"OK 3"}, data: "abc"},
			{req: "PROBE @0", want: []string{"OK 128 3 " + exp(time.Hour) + " HARD 1"}},
			{req: "BATCH 3", want: []string{"OK 3"}},
			{req: "ALLOCATE 2097152 3600 HARD", want: []string{quota}},
			{req: "STORE @0 3", blob: "xyz", want: []string{notFound}},
			{req: "EXTEND @2 60", want: []string{notFound}},
			{req: "STORE @0 3", blob: "xyz", want: []string{badReq}}, // no batch: not a capability
			{req: "DELETE {a.m}", want: []string{"OK 0"}},
			{req: "DELETE", want: []string{badReq}},
			{req: "PROBE {a.m}", want: []string{notFound}},
			// allocates, stores, loads, probes, extends, deletes, bytes
			// in, bytes out, errors, reaped, connects (this one and
			// COPY's), restores, violations.
			{req: "METRICS", want: []string{"OK 3 3 3 4 1 1 13 11 5 1 2 0 1"}},
			{req: "BOGUS", want: []string{unsupp}},
			{req: "MCOPY {b.r} 0 5 1 {c.W}", want: []string{unsupp}},
			// The connection survived every rejection above.
			{req: "PROBE {c.m}", want: []string{"OK 128 3 " + exp(time.Hour) + " HARD 1"}},
			{req: "QUIT"},
		}},
		{name: "malformed batch header", dropped: true, steps: []wireStep{
			{req: "BATCH x", want: []string{badReq}},
		}},
		{name: "batch over the op limit", dropped: true, steps: []wireStep{
			{req: "BATCH 65", want: []string{badReq}},
		}},
		{name: "unbatchable sub-verb", dropped: true, steps: []wireStep{
			{req: "BATCH 2", want: []string{"OK 2"}},
			{req: "ALLOCATE 64 3600 HARD", want: []string{caps}},
			{req: "STATUS", want: []string{unsupp}},
		}},
	}

	d, err := Serve("127.0.0.1:0", Config{
		Secret: testSecret, Capacity: 1 << 20, MaxDuration: 24 * time.Hour,
		Clock: vclock.NewVirtual(t0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	shape := func(typ string) *regexp.Regexp {
		return regexp.MustCompile(`^ibp://` + regexp.QuoteMeta(d.Advertised()) + `/[0-9a-f]{32}/` + typ + `#[0-9a-f]{32}$`)
	}
	patterns := map[string]*regexp.Regexp{
		"{READ}": shape("READ"), "{WRITE}": shape("WRITE"), "{MANAGE}": shape("MANAGE"),
		"{ts}": regexp.MustCompile(`^ts=\S+$`),
	}
	var names []string // placeholder → value pairs for strings.NewReplacer

	for _, s := range sessions {
		raw, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn := wire.NewConn(raw)
		for _, st := range s.steps {
			req := strings.NewReplacer(names...).Replace(st.req)
			if _, err := fmt.Fprintf(raw, "%s\n%s", req, st.blob); err != nil {
				t.Fatalf("%s: %q: %v", s.name, req, err)
			}
			for i, want := range st.want {
				got, err := conn.ReadLine()
				if err != nil {
					t.Fatalf("%s: %q: reply line %d: %v", s.name, req, i, err)
				}
				wantToks := strings.Fields(want)
				if len(got) > 0 && got[0] == "ERR" && len(got) >= 2 {
					got = got[:2] // code only
				}
				if !tokensMatch(got, wantToks, patterns) {
					t.Fatalf("%s: %q: reply line %d = %q, want %q", s.name, req, i, got, wantToks)
				}
				if st.save != "" {
					set := ibp.CapSet{}
					for j, dst := range []*ibp.Cap{&set.Read, &set.Write, &set.Manage} {
						if *dst, err = ibp.ParseCap(got[j+1]); err != nil {
							t.Fatal(err)
						}
					}
					a := "{" + st.save + "."
					names = append(names,
						a+"r}", set.Read.Token(), a+"w}", set.Write.Token(), a+"m}", set.Manage.Token(),
						a+"R}", set.Read.String(), a+"W}", set.Write.String(),
						a+"x}", set.Manage.Key+"/MANAGE#"+strings.Repeat("0", 2*ibp.TagLen))
				}
			}
			if st.data != "" {
				got, err := conn.ReadBlob(int64(len(st.data)))
				if err != nil || string(got) != st.data {
					t.Fatalf("%s: %q: payload = %q, %v; want %q", s.name, req, got, err, st.data)
				}
			}
		}
		if s.dropped {
			if toks, err := conn.ReadLine(); !errors.Is(err, io.EOF) {
				t.Fatalf("%s: connection still open after the last step (read %q, %v)", s.name, toks, err)
			}
		}
		conn.Close()
	}
}

// tokensMatch compares a reply line token by token, literal or pattern.
func tokensMatch(got, want []string, patterns map[string]*regexp.Regexp) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if re, ok := patterns[w]; ok {
			if !re.MatchString(got[i]) {
				return false
			}
		} else if got[i] != w {
			return false
		}
	}
	return true
}
