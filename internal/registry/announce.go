package registry

import (
	"log/slog"
	"sort"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/wire"
)

// The daemon-facing half of the client: what a long-running process does
// with its registry besides querying it. It keeps its own records alive
// (a depot record, a control-endpoint record) and takes them back out on
// the way down.
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
