package lbone

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestControlExpiryFollowsTTL(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	r := NewRegistryClock(time.Minute, clk)
	r.RegisterControl(ControlInfo{Addr: "a:1", Component: "ibp-depot", Name: "A"})
	if len(r.Controls()) != 1 {
		t.Fatal("fresh control endpoint should be live")
	}
	clk.Advance(2 * time.Minute)
	if len(r.Controls()) != 0 {
		t.Fatal("stale control endpoint should be hidden")
	}
	if !r.HeartbeatControl("a:1") {
		t.Fatal("heartbeat on known endpoint should succeed")
	}
	if len(r.Controls()) != 1 {
		t.Fatal("heartbeated endpoint should be live again")
	}
}

func TestControlBadRequests(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, c := range [][]string{
		{OpCRegister, "a:1"},                // too few fields
		{OpCRegister, "a:1", "x", "y", "z"}, // too many fields
		{OpCHeartbeat},                      // missing addr
		{OpCDeregister},                     // missing addr
	} {
		if err := conn.WriteLine(c...); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadStatus(); err == nil {
			t.Fatalf("request %v should fail", c)
		}
	}
	// The depot table is untouched by control traffic and the connection
	// survives the bad requests.
	if err := conn.WriteLine(opList); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvertisedControlAddr(t *testing.T) {
	for _, c := range []struct{ in, wantPort string }{
		{"0.0.0.0:9700", "9700"},
		{"[::]:9700", "9700"},
		{":9700", "9700"},
	} {
		got := AdvertisedControlAddr(c.in)
		if got == c.in {
			t.Errorf("AdvertisedControlAddr(%q) left wildcard host in place", c.in)
		}
		if want := ":" + c.wantPort; len(got) < len(want) || got[len(got)-len(want):] != want {
			t.Errorf("AdvertisedControlAddr(%q) = %q, want port %s", c.in, got, c.wantPort)
		}
	}
	// Concrete hosts pass through unchanged.
	if got := AdvertisedControlAddr("utk1.example:9700"); got != "utk1.example:9700" {
		t.Errorf("concrete host rewritten: %q", got)
	}
	if got := AdvertisedControlAddr("192.168.1.5:9700"); got != "192.168.1.5:9700" {
		t.Errorf("concrete IP rewritten: %q", got)
	}
}
