package nws

import (
	"math"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func startNWS(t *testing.T) (*Server, *Client) {
	t.Helper()
	svc := NewService(vclock.NewVirtual(time.Date(2002, 1, 11, 0, 0, 0, 0, time.UTC)))
	s, err := ServeNWS("127.0.0.1:0", svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, NewRemote(s.Addr())
}

func TestRemoteRecordForecast(t *testing.T) {
	_, c := startNWS(t)
	if _, ok := c.Forecast("UTK", "d1", Bandwidth); ok {
		t.Fatal("forecast before any measurement should fail")
	}
	for i := 0; i < 8; i++ {
		c.Record("UTK", "d1", Bandwidth, 12.5)
	}
	v, ok := c.Forecast("UTK", "d1", Bandwidth)
	if !ok || math.Abs(v-12.5) > 1e-9 {
		t.Fatalf("forecast = %v, %v", v, ok)
	}
	if _, ok := c.Forecast("UTK", "ghost", Bandwidth); ok {
		t.Fatal("unknown series should fail")
	}
}

func TestRemoteToolsCompatibility(t *testing.T) {
	// The remote client satisfies the same shape the tools use: feed and
	// query through interface-typed variables.
	_, c := startNWS(t)
	var rec Recorder = c
	rec.Record("A", "B", Latency, 42)
	var fc interface {
		Forecast(src, dst string, res Resource) (float64, bool)
	} = c
	v, ok := fc.Forecast("A", "B", Latency)
	if !ok || v != 42 {
		t.Fatalf("forecast via interface = %v, %v", v, ok)
	}
}

func TestRemoteUnreachableDegradesGracefully(t *testing.T) {
	c := NewRemote("127.0.0.1:1")
	// Record must be silent, Forecast must report not-ok; neither may
	// panic or block beyond the dial timeout.
	c.Record("a", "b", Bandwidth, 1)
	if _, ok := c.Forecast("a", "b", Bandwidth); ok {
		t.Fatal("unreachable daemon should not forecast")
	}
}

func TestServerBadRequestsKeepConnectionUsable(t *testing.T) {
	s, c := startNWS(t)
	_ = s
	// Bad value.
	c.Record("a", "b", Bandwidth, 7)
	conn, err := c.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteLine("RECORD", "a", "b", "bandwidth", "not-a-number"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err == nil {
		t.Fatal("bad value should fail")
	}
	if err := conn.WriteLine("FORECAST", "a", "b", "bandwidth"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatalf("connection should survive a bad request: %v", err)
	}
	if err := conn.WriteLine("BOGUS"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err == nil {
		t.Fatal("unknown op should fail")
	}
}

// A client that keeps its connection open between requests must not hold
// up shutdown: the handler is blocked reading the next request line, which
// never comes, so Close has to sever the connection itself.
func TestServerCloseSeversIdleConnections(t *testing.T) {
	s, c := startNWS(t)
	conn, err := c.connect()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One exchange proves the handler is up before the connection idles.
	if err := conn.WriteLine(opForecast, "UTK", "d1", string(Bandwidth)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("FORECAST of an empty series = %v, want NOT_FOUND", err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close still waiting on an idle client connection after 1s")
	}
	if _, err := conn.ReadLine(); err == nil {
		t.Fatal("client connection still open after server Close")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := startNWS(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
