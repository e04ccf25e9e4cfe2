package registry

import (
	"errors"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The daemon-facing half of the client: what a long-running process does
// with its registry besides querying it. It keeps its own records alive
// (a depot record, a control-endpoint record), takes them back out on the
// way down, and serves the control endpoint it announces.
//
// The control table's C* verbs are older than views and carry no stamp
// (DESIGN §9.5); everything else about them is the quorum's: writes need a
// majority of the view, the list is read from a majority.

// RegisterControl announces a daemon's control HTTP endpoint so the fleet
// aggregator can discover it.
func (c *QuorumClient) RegisterControl(ci lbone.ControlInfo) error {
	return c.quorum("cregister", ackOp(false, lbone.OpCRegister, lbone.ControlTokens(ci)...))
}

// DeregisterControl removes a control endpoint.
func (c *QuorumClient) DeregisterControl(addr string) error {
	return c.quorum("cderegister", ackOp(false, lbone.OpCDeregister, addr))
}

// ListControls returns every live control endpoint a majority of the view
// knows: the union of the answers, one entry per address, ordered by
// address. Any majority shares a member with the majority a registration
// reached, so an endpoint registered through the quorum is always listed.
func (c *QuorumClient) ListControls() ([]lbone.ControlInfo, error) {
	byAddr := map[string]lbone.ControlInfo{}
	err := c.quorum("clist", replicaOp{read: true,
		send: func(conn *wire.Conn, _ int64) error { return conn.WriteLine(lbone.OpCList) },
		recv: func(conn *wire.Conn, _ string) error {
			cis, err := readList(conn, "CTRL", 3, lbone.ParseControlTokens)
			for _, ci := range cis {
				byAddr[ci.Addr] = ci
			}
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]lbone.ControlInfo, 0, len(byAddr))
	for _, ci := range byAddr {
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// announce runs register now and returns its error, then keeps running it
// every interval in the background until stop closes, when it runs
// deregister. It re-registers rather than heartbeats: registration is
// idempotent, never rolls liveness back, and heals a replica that missed
// the original write or restarted with an empty table — a heartbeat would
// answer NOT_FOUND there forever. Failures are logged and retried on the
// next tick, never fatal: a registry outage must not take a serving
// daemon down. Close waits for the deregistration.
func (c *QuorumClient) announce(what, addr string, register, deregister func() error,
	interval time.Duration, logger *slog.Logger, stop <-chan struct{}) error {
	if logger == nil {
		logger = obs.NopLogger()
	}
	if interval <= 0 {
		interval = time.Minute
	}
	try := func(verb string, op func() error) error {
		err := op()
		if err != nil {
			logger.Warn(what+" "+verb+" failed", "addr", addr, "err", err)
		}
		return err
	}
	first := try("registration", register)
	c.announcing.Add(1)
	go func() {
		defer c.announcing.Done()
		for {
			select {
			case <-stop:
				try("deregistration", deregister) //nolint:errcheck // logged
				return
			case <-c.clock.After(interval):
				try("registration", register) //nolint:errcheck // logged
			}
		}
	}()
	return first
}

// AnnounceDepot keeps d registered (see announce): a depot whose registry
// restarted is back in Query results within one interval, and one that
// stops cleanly leaves them at once instead of lingering for the TTL.
func (c *QuorumClient) AnnounceDepot(d lbone.DepotInfo, interval time.Duration, logger *slog.Logger, stop <-chan struct{}) error {
	return c.announce("depot", d.Addr,
		func() error { return c.RegisterDepot(d) },
		func() error { return c.DeregisterDepot(d.Addr) },
		interval, logger, stop)
}

// AnnounceControl keeps the control endpoint ci registered (see announce).
func (c *QuorumClient) AnnounceControl(ci lbone.ControlInfo, interval time.Duration, logger *slog.Logger, stop <-chan struct{}) error {
	return c.announce("control", ci.Addr,
		func() error { return c.RegisterControl(ci) },
		func() error { return c.DeregisterControl(ci.Addr) },
		interval, logger, stop)
}

// ServeControl is a daemon's control endpoint from flag to fleet: it
// listens on listen, serves mux there (with /debug/pprof when pprof is
// set), and returns the address peers can dial. With a registry client it
// also announces that address as ci (whose Addr it fills in) until stop
// closes, and appends the client's registry_client_* samples to the mux's
// /metrics. c may be nil: a daemon run without a registry still serves.
func ServeControl(c *QuorumClient, mux *http.ServeMux, listen string, pprof bool,
	ci lbone.ControlInfo, interval time.Duration, logger *slog.Logger, stop <-chan struct{}) (string, error) {
	if pprof {
		obs.AttachPprof(mux)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return "", err
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	ci.Addr = lbone.AdvertisedControlAddr(ln.Addr().String())
	var handler http.Handler = mux
	if c != nil {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mux.ServeHTTP(w, r)
			if r.URL.Path == "/metrics" {
				var b strings.Builder
				obs.WriteMetrics(&b, c.Metrics())
				w.Write([]byte(b.String())) //nolint:errcheck // client went away
			}
		})
	}
	go func() {
		logger.Info("metrics listening", "url", "http://"+ci.Addr+"/metrics")
		if err := http.Serve(ln, handler); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("metrics listener", "err", err)
		}
	}()
	if c != nil {
		c.AnnounceControl(ci, interval, logger, stop) //nolint:errcheck // logged, retried
	}
	return ci.Addr, nil
}
