package lbone

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestLBoneMetricsEndpoint(t *testing.T) {
	s := startServer(t, ServerConfig{})
	conn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	utk1 := depotAt("UTK1", geo.UTK, 100<<30, 24*time.Hour)
	for _, req := range [][]string{
		append([]string{opRegister}, DepotTokens(utk1)...),
		append([]string{opRegister}, DepotTokens(depotAt("UCSD1", geo.UCSD, 10<<30, time.Hour))...),
		{opHeartbeat, utk1.Addr},
		{opList},
	} {
		if err := conn.WriteLine(req...); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadStatus(); err != nil {
			t.Fatalf("%v: %v", req, err)
		}
	}
	// (LIST's two DEPOT lines stay unread; the counters moved already.)

	srv := httptest.NewServer(s.Surface().Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"lbone_registers_total 2",
		"lbone_heartbeats_total 1",
		"lbone_queries_total 1",
		"lbone_depots_returned_total 2",
		"lbone_depots_registered 2",
		"lbone_depots_live 2",
		"# TYPE lbone_queries_total counter",
		"# TYPE lbone_depots_live gauge",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q\n%s", want, body)
		}
	}
}

func TestLBoneHealthzEndpoint(t *testing.T) {
	s := startServer(t, ServerConfig{})
	srv := httptest.NewServer(s.Surface().Mux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", resp.StatusCode)
	}

	s.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", resp.StatusCode)
	}
}
