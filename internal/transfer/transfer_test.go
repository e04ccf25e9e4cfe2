package transfer

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/vclock"
)

func TestLimiterCapsConcurrency(t *testing.T) {
	e := New(Config{MaxPerDepot: 3})
	var cur, peak, total int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release := e.Acquire("d1:6714")
			defer release()
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			atomic.AddInt64(&total, 1)
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&peak); got > 3 {
		t.Fatalf("peak concurrency %d exceeds limit 3", got)
	}
	if got := atomic.LoadInt64(&total); got != 64 {
		t.Fatalf("completed %d of 64 acquisitions", got)
	}
	c := e.Counters()
	if c.LimitAcquires != 64 {
		t.Fatalf("LimitAcquires = %d, want 64", c.LimitAcquires)
	}
	if c.LimitWaits == 0 {
		t.Fatal("64 goroutines through 3 slots should have waited at least once")
	}
}

func TestLimiterIndependentPerDepot(t *testing.T) {
	e := New(Config{MaxPerDepot: 1})
	relA := e.Acquire("a:1")
	// Depot b must not be blocked by a's saturated slot.
	done := make(chan struct{})
	go func() {
		relB := e.Acquire("b:1")
		relB()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire on an idle depot blocked behind another depot's slot")
	}
	relA()
}

func TestLimiterBandwidthWeighting(t *testing.T) {
	bw := map[string]float64{"fast:1": 40, "slow:1": 10}
	e := New(Config{MaxPerDepot: 4, Forecast: func(addr string) (float64, bool) {
		v, ok := bw[addr]
		return v, ok
	}})
	// Touch both depots so the limiter has both forecasts.
	e.Acquire("fast:1")()
	e.Acquire("slow:1")()
	// Mean bw = 25: fast earns 4*40/25 ≈ 6 slots, slow 4*10/25 ≈ 2.
	if got := e.Slots("fast:1"); got != 6 {
		t.Fatalf("fast slots = %d, want 6", got)
	}
	if got := e.Slots("slow:1"); got != 2 {
		t.Fatalf("slow slots = %d, want 2", got)
	}
	// A depot with no forecast keeps the base count.
	if got := e.Slots("unknown:1"); got != 4 {
		t.Fatalf("unforecast slots = %d, want base 4", got)
	}
}

func TestSingleflightSharesOneDecode(t *testing.T) {
	e := New(Config{})
	var calls int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	shared := int64(0)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, _, wasShared, err := e.GroupDo("file.g0", func() ([]byte, error) {
				atomic.AddInt64(&calls, 1)
				<-gate
				return []byte("decoded"), nil
			})
			if err != nil || string(val) != "decoded" {
				t.Errorf("GroupDo: %q, %v", val, err)
			}
			if wasShared {
				atomic.AddInt64(&shared, 1)
			}
		}()
	}
	// Let every goroutine reach the singleflight before the leader finishes.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Fatalf("decode ran %d times, want 1", got)
	}
	if got := atomic.LoadInt64(&shared); got != 7 {
		t.Fatalf("%d callers shared, want 7", got)
	}
	c := e.Counters()
	if c.SingleflightLeaders != 1 || c.SingleflightShared != 7 {
		t.Fatalf("counters = %+v", c)
	}
	// After the call drains, a new caller runs a fresh decode.
	if _, _, wasShared, _ := e.GroupDo("file.g0", func() ([]byte, error) { return nil, nil }); wasShared {
		t.Fatal("post-drain call should lead, not share")
	}
}

func TestSingleflightPropagatesError(t *testing.T) {
	e := New(Config{})
	boom := errors.New("boom")
	if _, _, _, err := e.GroupDo("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestEngineRaceHammer exercises the semaphore and singleflight together
// under -race: many goroutines acquiring overlapping depots while decoding
// a shared coding group.
func TestEngineRaceHammer(t *testing.T) {
	e := New(Config{MaxPerDepot: 2})
	depots := []string{"a:1", "b:1", "c:1"}
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release := e.Acquire(depots[i%len(depots)])
			_, _, _, _ = e.GroupDo("shared.g0", func() ([]byte, error) {
				return []byte{byte(i)}, nil
			})
			release()
		}(i)
	}
	wg.Wait()
	c := e.Counters()
	if c.LimitAcquires != 48 {
		t.Fatalf("LimitAcquires = %d, want 48", c.LimitAcquires)
	}
	if c.SingleflightLeaders+c.SingleflightShared != 48 {
		t.Fatalf("singleflight total = %d, want 48", c.SingleflightLeaders+c.SingleflightShared)
	}
}

func TestHedgeBackupWinsAndLoserCancelled(t *testing.T) {
	e := New(Config{Hedge: true, HedgeAfter: 20 * time.Millisecond})
	winner, out := e.Hedge([2]string{"slow:1", "fast:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-cancel // the slow primary hangs until cancelled
			return errors.New("cancelled")
		}
		return nil
	})
	if winner != 1 {
		t.Fatalf("winner = %d, want backup", winner)
	}
	if out[0] == nil || out[0].Err == nil {
		t.Fatalf("primary outcome = %+v, want cancelled error", out[0])
	}
	if out[1] == nil || out[1].Err != nil || !out[1].Hedged {
		t.Fatalf("backup outcome = %+v", out[1])
	}
	c := e.Counters()
	if c.HedgesLaunched != 1 || c.HedgeWins != 1 || c.HedgesCancelled != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHedgeFastPrimarySkipsBackup(t *testing.T) {
	e := New(Config{Hedge: true, HedgeAfter: time.Second})
	winner, out := e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 1 {
			t.Error("backup launched despite fast primary")
		}
		return nil
	})
	if winner != 0 || out[1] != nil {
		t.Fatalf("winner=%d out[1]=%+v, want primary only", winner, out[1])
	}
	if c := e.Counters(); c.HedgesLaunched != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestHedgeFastFailureReturnsWithoutBackup(t *testing.T) {
	// A primary that fails before the threshold is plain failover territory:
	// the caller's candidate loop handles it, not the hedger.
	e := New(Config{Hedge: true, HedgeAfter: time.Second})
	winner, out := e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		return errors.New("refused")
	})
	if winner != -1 || out[1] != nil {
		t.Fatalf("winner=%d out[1]=%+v, want fast failure with no backup", winner, out[1])
	}
}

func TestHedgeDisabledNeverLaunchesBackup(t *testing.T) {
	e := New(Config{Hedge: false, HedgeAfter: time.Millisecond})
	winner, out := e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 1 {
			t.Error("backup launched with hedging disabled")
		}
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if winner != 0 || out[1] != nil {
		t.Fatalf("winner=%d out[1]=%+v", winner, out[1])
	}
}

func TestHedgeDelayAdaptive(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	sb := health.New(health.Config{Clock: clk})
	e := New(Config{
		Hedge:         true,
		Health:        sb,
		HedgeMultiple: 3,
		MinHedgeDelay: 10 * time.Millisecond,
		MaxHedgeDelay: 2 * time.Second,
		Clock:         clk,
	})
	// No data at all: the conservative cap.
	if got := e.HedgeDelay("a:1"); got != 2*time.Second {
		t.Fatalf("cold delay = %v, want 2s", got)
	}
	// Scoreboard percentiles take priority once the depot has history.
	for i := 0; i < 10; i++ {
		sb.Report("a:1", health.Success, 100*time.Millisecond)
	}
	if got := e.HedgeDelay("a:1"); got != 100*time.Millisecond {
		t.Fatalf("p95 delay = %v, want 100ms", got)
	}
	// A depot unknown to the scoreboard falls back to the engine's own
	// observed median times HedgeMultiple.
	e.observe(50 * time.Millisecond)
	if got := e.HedgeDelay("nohistory:1"); got != 150*time.Millisecond {
		t.Fatalf("fallback delay = %v, want 3*50ms", got)
	}
	// The floor keeps a streak of fast fetches from hedging everything.
	e2 := New(Config{MinHedgeDelay: 25 * time.Millisecond, Clock: clk})
	e2.observe(time.Millisecond)
	if got := e2.HedgeDelay("x:1"); got != 25*time.Millisecond {
		t.Fatalf("floored delay = %v, want 25ms", got)
	}
	// A fixed HedgeAfter overrides everything.
	e3 := New(Config{HedgeAfter: 42 * time.Millisecond, Health: sb, Clock: clk})
	if got := e3.HedgeDelay("a:1"); got != 42*time.Millisecond {
		t.Fatalf("fixed delay = %v, want 42ms", got)
	}
}

func TestEngineMetricsOnMetricsEndpoint(t *testing.T) {
	e := New(Config{Hedge: true, HedgeAfter: 5 * time.Millisecond})
	e.Acquire("a:1")()
	e.GroupDo("g", func() ([]byte, error) { return nil, nil })
	e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-cancel
			return errors.New("cancelled")
		}
		return nil
	})
	srv := httptest.NewServer(obs.MetricsHandler(func() []obs.Metric {
		return e.Metrics("xnd_transfer_")
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"xnd_transfer_hedges_total 1",
		"xnd_transfer_hedge_wins_total 1",
		"xnd_transfer_hedge_cancels_total 1",
		"xnd_transfer_limit_acquires_total",
		"xnd_transfer_singleflight_leader_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSlowUsesBaseThreshold: a depot is measured-slow when the median of at
// least three scoreboard samples exceeds the delay after which the engine
// would hedge any request — not the depot's own p95, which an always-slow
// depot never outlives.
func TestSlowUsesBaseThreshold(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	sb := health.New(health.Config{Clock: clk})
	for i := 0; i < 3; i++ {
		sb.Report("late:1", health.Success, 25*time.Millisecond)
	}
	sb.Report("young:1", health.Success, time.Second)
	sb.Report("young:1", health.Success, time.Second)
	for _, d := range []time.Duration{time.Millisecond, time.Millisecond, time.Second} {
		sb.Report("spiky:1", health.Success, d)
	}

	fixed := New(Config{Hedge: true, HedgeAfter: 10 * time.Millisecond, Health: sb, Clock: clk})
	for addr, want := range map[string]bool{"late:1": true, "young:1": false, "spiky:1": false, "unknown:1": false} {
		if got := fixed.Slow(addr); got != want {
			t.Errorf("HedgeAfter 10ms: Slow(%s) = %v, want %v", addr, got, want)
		}
	}

	// Adaptive: before the engine has observed anything its base threshold
	// is MaxHedgeDelay, and 25 ms is not slow; once its own median is 1 ms
	// the base is the 10 ms floor. The depot's own HedgeDelay stays its p95,
	// 25 ms, which its requests never outlive.
	adaptive := New(Config{Hedge: true, Health: sb, Clock: clk})
	if adaptive.Slow("late:1") {
		t.Error("adaptive engine with no observations calls 25 ms slow")
	}
	adaptive.observe(time.Millisecond)
	if !adaptive.Slow("late:1") {
		t.Error("adaptive engine at a 10 ms base does not call 25 ms slow")
	}
	if got := adaptive.HedgeDelay("late:1"); got != 25*time.Millisecond {
		t.Errorf("HedgeDelay(late) = %v, want its own p95 25ms", got)
	}

	if New(Config{Hedge: true, HedgeAfter: time.Millisecond, Clock: clk}).Slow("late:1") {
		t.Error("an engine without a scoreboard calls a depot slow")
	}
}

// TestHedgeReportsCancelledPrimaryLatency: a primary cancelled because its
// backup won leaves a latency-only lower bound on the scoreboard — and no
// outcome — while a backup cancelled because the primary won leaves
// nothing.
func TestHedgeReportsCancelledPrimaryLatency(t *testing.T) {
	sb := health.New(health.Config{})
	e := New(Config{Hedge: true, HedgeAfter: 20 * time.Millisecond, Health: sb})
	hangUntilCancelled := func(slow int) func(int, <-chan struct{}) error {
		return func(idx int, cancel <-chan struct{}) error {
			if idx == slow {
				<-cancel
				return errors.New("cancelled")
			}
			return nil
		}
	}
	if winner, _ := e.Hedge([2]string{"slow:1", "fast:1"}, hangUntilCancelled(0)); winner != 1 {
		t.Fatalf("winner = %d, want backup", winner)
	}
	med, _, n := sb.Latency("slow:1")
	if n != 1 || med < 20*time.Millisecond {
		t.Fatalf("cancelled primary: %d samples, median %v; want 1 sample >= the 20ms hedge delay", n, med)
	}
	for _, row := range sb.Snapshot() {
		if row.Successes+row.Timeouts+row.Refusals+row.NetErrors+row.ProtocolErrors != 0 {
			t.Fatalf("latency-only sample counted an outcome: %+v", row)
		}
	}

	// The primary wins once the backup is running: the cancelled backup
	// reports nothing.
	release := make(chan struct{})
	winner, _ := e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-release
			return nil
		}
		close(release)
		<-cancel
		return errors.New("cancelled")
	})
	if winner != 0 {
		t.Fatalf("winner = %d, want primary", winner)
	}
	if _, _, n := sb.Latency("b:1"); n != 0 {
		t.Fatalf("cancelled backup left %d samples", n)
	}
}
