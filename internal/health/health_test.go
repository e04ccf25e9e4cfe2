package health

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

var t0 = time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)

func board(clk vclock.Clock) *Scoreboard {
	return New(Config{
		FailureThreshold: 3,
		BaseBackoff:      10 * time.Second,
		MaxBackoff:       time.Minute,
		Clock:            clk,
		Seed:             1,
	})
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	addr := "a:1"
	for i := 0; i < 2; i++ {
		if err := s.Allow(addr); err != nil {
			t.Fatalf("closed circuit refused request %d: %v", i, err)
		}
		s.Report(addr, Timeout, 0)
	}
	if st, _ := s.State(addr); st != StateClosed {
		t.Fatalf("state after 2 failures = %v, want closed", st)
	}
	s.Report(addr, Refused, 0)
	st, retryAt := s.State(addr)
	if st != StateOpen {
		t.Fatalf("state after 3 failures = %v, want open", st)
	}
	if !retryAt.After(clk.Now()) {
		t.Fatalf("retryAt %v not in the future", retryAt)
	}
	err := s.Allow(addr)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit allowed a request: %v", err)
	}
	var oe *OpenError
	if !errors.As(err, &oe) || oe.Addr != addr {
		t.Fatalf("err = %#v, want *OpenError for %s", err, addr)
	}
	if !s.Blocked(addr) {
		t.Fatal("open circuit should report Blocked")
	}
}

func TestSuccessResetsConsecutiveFailures(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	addr := "a:1"
	for i := 0; i < 10; i++ {
		s.Report(addr, Timeout, 0)
		s.Report(addr, Success, time.Millisecond)
	}
	if st, _ := s.State(addr); st != StateClosed {
		t.Fatalf("alternating outcomes opened the circuit: %v", st)
	}
}

func TestProtocolErrorsNeverTrip(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	addr := "a:1"
	for i := 0; i < 20; i++ {
		s.Report(addr, ProtocolError, 0)
	}
	if st, _ := s.State(addr); st != StateClosed {
		t.Fatal("remote protocol errors tripped the breaker")
	}
	// They also reset the connectivity-failure streak: the depot answered.
	s.Report(addr, Timeout, 0)
	s.Report(addr, Timeout, 0)
	s.Report(addr, ProtocolError, 0)
	s.Report(addr, Timeout, 0)
	if st, _ := s.State(addr); st != StateClosed {
		t.Fatal("streak should have been reset by the protocol error")
	}
}

func TestHalfOpenProbeAndReclose(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	addr := "a:1"
	for i := 0; i < 3; i++ {
		s.Report(addr, Timeout, 0)
	}
	if err := s.Allow(addr); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("freshly opened circuit should refuse")
	}
	// Backoff is 10s ± 20% jitter: after 13s the probe must be allowed.
	clk.Advance(13 * time.Second)
	if err := s.Allow(addr); err != nil {
		t.Fatalf("probe after backoff refused: %v", err)
	}
	if st, _ := s.State(addr); st != StateHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", st)
	}
	// Only one probe at a time.
	if err := s.Allow(addr); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second concurrent probe should be refused")
	}
	if !s.Blocked(addr) {
		t.Fatal("half-open should report Blocked to rankers")
	}
	s.Report(addr, Success, 5*time.Millisecond)
	if st, _ := s.State(addr); st != StateClosed {
		t.Fatalf("successful probe left state %v", st)
	}
	if err := s.Allow(addr); err != nil {
		t.Fatalf("reclosed circuit refused: %v", err)
	}
}

func TestFailedProbeBacksOffExponentially(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := New(Config{
		FailureThreshold: 2,
		BaseBackoff:      10 * time.Second,
		MaxBackoff:       time.Hour,
		JitterFrac:       -1, // clamps to 0: deterministic backoffs
		Clock:            clk,
		Seed:             7,
	})
	addr := "a:1"
	s.Report(addr, Timeout, 0)
	s.Report(addr, Timeout, 0) // trip 1: 10s
	_, retry1 := s.State(addr)
	if got := retry1.Sub(clk.Now()); got != 10*time.Second {
		t.Fatalf("first backoff = %v, want 10s", got)
	}
	clk.Advance(10 * time.Second)
	if err := s.Allow(addr); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	s.Report(addr, Refused, 0) // trip 2: 20s
	_, retry2 := s.State(addr)
	if got := retry2.Sub(clk.Now()); got != 20*time.Second {
		t.Fatalf("second backoff = %v, want 20s", got)
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Opened != 2 || snap[0].HalfOpened != 1 || snap[0].Trips != 2 {
		t.Fatalf("transition counters: %+v", snap)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := New(Config{
		FailureThreshold: 1,
		BaseBackoff:      time.Second,
		MaxBackoff:       8 * time.Second,
		JitterFrac:       0.5,
		Clock:            clk,
		Seed:             3,
	})
	addr := "a:1"
	var backoffs []time.Duration
	for i := 0; i < 8; i++ {
		s.Report(addr, Timeout, 0)
		_, retry := s.State(addr)
		backoffs = append(backoffs, retry.Sub(clk.Now()))
		clk.Advance(retry.Sub(clk.Now()))
		if err := s.Allow(addr); err != nil {
			t.Fatalf("probe %d refused: %v", i, err)
		}
	}
	for i, b := range backoffs {
		if b > 12*time.Second {
			t.Fatalf("backoff %d = %v exceeds cap+jitter", i, b)
		}
	}
	// Jitter must actually vary late (capped) backoffs.
	if backoffs[5] == backoffs[6] && backoffs[6] == backoffs[7] {
		t.Fatalf("capped backoffs show no jitter: %v", backoffs[5:])
	}
}

func TestScoreFreshnessWeighting(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := New(Config{ScoreHalfLife: time.Minute, Clock: clk, Seed: 1})
	addr := "a:1"
	if got := s.Score("unknown:1"); got != 1 {
		t.Fatalf("unknown depot score = %v, want 1", got)
	}
	for i := 0; i < 10; i++ {
		s.Report(addr, Timeout, 0)
	}
	if got := s.Score(addr); got > 0.01 {
		t.Fatalf("all-failure score = %v, want ~0", got)
	}
	// Ten half-lives later the old failures barely count; fresh successes
	// dominate.
	clk.Advance(10 * time.Minute)
	for i := 0; i < 3; i++ {
		s.Report(addr, Success, time.Millisecond)
	}
	if got := s.Score(addr); got < 0.95 {
		t.Fatalf("fresh-success score = %v, want ~1", got)
	}
}

func TestSnapshotAndRender(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	s.Report("b:1", Success, 20*time.Millisecond)
	s.Report("b:1", Success, 40*time.Millisecond)
	for i := 0; i < 3; i++ {
		s.Report("a:1", Timeout, 0)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Addr != "a:1" || snap[1].Addr != "b:1" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[0].State != StateOpen || snap[0].Timeouts != 3 || snap[0].Counter.Fail != 3 {
		t.Fatalf("a:1 row: %+v", snap[0])
	}
	if snap[1].Latency.N != 2 || snap[1].Counter.OK != 2 {
		t.Fatalf("b:1 row: %+v", snap[1])
	}
	out := s.Render()
	if !strings.Contains(out, "a:1") || !strings.Contains(out, "open") ||
		!strings.Contains(out, "backing off") {
		t.Fatalf("render missing open depot:\n%s", out)
	}
	if !strings.Contains(out, "b:1") || !strings.Contains(out, "closed") {
		t.Fatalf("render missing healthy depot:\n%s", out)
	}
	empty := New(Config{Clock: clk}).Render()
	if !strings.Contains(empty, "no observations") {
		t.Fatalf("empty render:\n%s", empty)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Outcome
	}{
		{nil, Success},
		{os.ErrDeadlineExceeded, Timeout},
		{&net.OpError{Op: "dial", Err: timeoutErr{}}, Timeout},
		{syscall.ECONNREFUSED, Refused},
		{&net.OpError{Op: "dial", Err: fmt.Errorf("faultnet: connection refused (depot down)")}, Refused},
		{io.EOF, NetError},
		{io.ErrUnexpectedEOF, NetError},
		{net.ErrClosed, NetError},
		{&net.OpError{Op: "read", Err: errors.New("reset by peer")}, NetError},
		{&wire.RemoteError{Code: wire.CodeNotFound}, ProtocolError},
		{errors.New("bad capability"), ProtocolError},
		{fmt.Errorf("ibp: dial x: %w", &net.OpError{Op: "dial", Err: timeoutErr{}}), Timeout},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Fatalf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

func TestConcurrentReportersRace(t *testing.T) {
	// Exercised under -race by tier-1: many goroutines share one board.
	s := New(Config{Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := fmt.Sprintf("d%d:1", g%3)
			for i := 0; i < 200; i++ {
				if err := s.Allow(addr); err == nil {
					if i%3 == 0 {
						s.Report(addr, Timeout, 0)
					} else {
						s.Report(addr, Success, time.Millisecond)
					}
				}
				s.ReportLatency(addr, 2*time.Millisecond)
				s.Latency(addr)
				s.Score(addr)
				s.Blocked(addr)
			}
		}(g)
	}
	wg.Wait()
	s.Snapshot()
	s.Render()
}

// TestLatencyAllocatesNothing: the transfer engine asks for a depot's
// percentiles on every hedged race and every ranked download candidate, so
// the accessor must not copy the 256-sample ring to the heap.
func TestLatencyAllocatesNothing(t *testing.T) {
	s := board(vclock.NewVirtual(t0))
	// 300 samples of 1..300 ms: the ring keeps the last 256, 45..300 ms.
	for i := 1; i <= 300; i++ {
		s.Report("a:1", Success, time.Duration(i)*time.Millisecond)
	}
	med, p95, n := s.Latency("a:1")
	if n != maxLatencySamples || med != 172500*time.Microsecond || p95 != 287250*time.Microsecond {
		t.Fatalf("Latency = (%v, %v, %d), want (172.5ms, 287.25ms, %d)", med, p95, n, maxLatencySamples)
	}
	if _, _, n := s.Latency("unknown:1"); n != 0 {
		t.Fatalf("unknown depot has %d samples", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Latency("a:1") }); allocs != 0 {
		t.Fatalf("Latency allocates %.0f objects per call, want 0", allocs)
	}
}

// TestReportLatencyIsLatencyOnly: a cancelled hedge loser's lower bound
// feeds the percentiles and nothing else — no outcome, no score, no
// breaker state — so the scoreboard's outcome accounting is what it was.
func TestReportLatencyIsLatencyOnly(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := board(clk)
	for i := 0; i < 3; i++ {
		s.Report("a:1", Timeout, 0)
	}
	before := s.Snapshot()[0]
	s.ReportLatency("a:1", 30*time.Millisecond)
	s.ReportLatency("a:1", 0) // no bound at all: ignored
	s.ReportLatency("b:1", -time.Millisecond)
	after := s.Snapshot()
	if len(after) != 1 {
		t.Fatalf("a non-positive sample created a row: %+v", after)
	}
	if _, _, n := s.Latency("a:1"); n != 1 {
		t.Fatalf("latency samples = %d, want 1", n)
	}
	got := after[0]
	got.Latency = before.Latency
	if got != before {
		t.Fatalf("latency-only sample changed the row:\nbefore %+v\nafter  %+v", before, got)
	}
	if !s.Blocked("a:1") {
		t.Fatal("a latency sample reclosed an open circuit")
	}
}
