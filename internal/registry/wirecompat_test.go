package registry

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// Wire compatibility (DESIGN §9.5) is a property of the server: whatever
// client an old deployment runs, these request lines get these response
// lines. The table drives every classic verb — and a malformed line of
// each — over a bare framed connection, against the two servers
// lbone-server can be: alone (a view of one) and one member of three. The
// verbs spelled out here are the wire's, deliberately not the packages'
// constants.
func TestClassicVerbWireCompatibility(t *testing.T) {
	const (
		depot    = "utk1.example:6714 UTK1 UTK 35.9600,-83.9200 107374182400 86400"
		ok       = "OK"
		badReq   = "ERR BAD_REQUEST"
		notFound = "ERR NOT_FOUND"
	)
	// Each step is a request line and the response lines it must draw. An
	// ERR line is matched on its code alone: the message is for humans.
	steps := []struct {
		req  string
		want []string
	}{
		{"REGISTER " + depot, []string{ok}},
		{"REGISTER utk1.example:6714 UTK1 UTK", []string{badReq}},
		{"REGISTER utk1.example:6714 UTK1 UTK 999,0 1 1", []string{badReq}},
		{"REGISTER utk1.example:6714 UTK1 UTK 35.9600,-83.9200 -1 1", []string{badReq}},
		{"HEARTBEAT utk1.example:6714", []string{ok}},
		{"HEARTBEAT ghost.example:1", []string{notFound}},
		{"HEARTBEAT", []string{badReq}},
		{"QUERY 0 0 - 0", []string{"OK 1", "DEPOT " + depot}},
		{"QUERY 1 3600 32.88,-117.23 5", []string{"OK 1", "DEPOT " + depot}},
		{"QUERY 999999999999999 0 - 0", []string{"OK 0"}},
		{"QUERY x 0 - 0", []string{badReq}},
		{"QUERY 0 0 nowhere 0", []string{badReq}},
		{"QUERY 0 0 -", []string{badReq}},
		{"LIST", []string{"OK 1", "DEPOT " + depot}},
		{"LIST ignored arguments", []string{"OK 1", "DEPOT " + depot}},
		{"CREGISTER utk1.example:9714 ibp-depot UTK1", []string{ok}},
		{"CREGISTER aaa.example:9791 maintaind maintaind-0", []string{ok}},
		{"CREGISTER utk1.example:9714", []string{badReq}},
		{"CHEARTBEAT utk1.example:9714", []string{ok}},
		{"CHEARTBEAT ghost.example:1", []string{notFound}},
		{"CHEARTBEAT", []string{badReq}},
		{"CLIST", []string{"OK 2", "CTRL aaa.example:9791 maintaind maintaind-0", "CTRL utk1.example:9714 ibp-depot UTK1"}},
		{"CDEREGISTER utk1.example:9714", []string{ok}},
		{"CDEREGISTER", []string{badReq}},
		{"CLIST", []string{"OK 1", "CTRL aaa.example:9791 maintaind maintaind-0"}},
		{"DEREGISTER utk1.example:6714", []string{ok}},
		{"DEREGISTER", []string{badReq}},
		{"LIST", []string{"OK 0"}},
		{"BOGUS", []string{"ERR UNSUPPORTED"}},
		// The connection survived every rejection above.
		{"HEARTBEAT utk1.example:6714", []string{notFound}},
	}

	lone, _, err := Serve("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	_, _, group := startGroup(t, 3)

	for name, addr := range map[string]string{"one-member": lone.Addr(), "three-member": group[1]} {
		t.Run(name, func(t *testing.T) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			conn := wire.NewConn(raw)
			defer conn.Close()
			for _, st := range steps {
				if _, err := fmt.Fprintf(raw, "%s\n", st.req); err != nil {
					t.Fatal(err)
				}
				for i, want := range st.want {
					got, err := conn.ReadLine()
					if err != nil {
						t.Fatalf("%q: response line %d: %v", st.req, i, err)
					}
					wantToks := strings.Fields(want)
					if got[0] == "ERR" && len(got) == 3 {
						got = got[:2] // code only
					}
					if !reflect.DeepEqual(got, wantToks) {
						t.Fatalf("%q: response line %d = %q, want %q", st.req, i, got, wantToks)
					}
				}
			}
		})
	}
}
