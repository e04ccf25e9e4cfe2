package lbone

import (
	"sync"
	"time"

	"repro/internal/ibp"
	"repro/internal/vclock"
)

// Poller keeps registry capacity data fresh by querying each registered
// depot's STATUS periodically — so L-Bone answers about "minimum storage
// capacity ... requirements" (paper §2.2) reflect live free space, not the
// capacity a depot advertised at registration time.
type Poller struct {
	reg      *Registry
	regMu    sync.Locker // guards reg (the server's mutex, or a no-op)
	client   *ibp.Client
	owned    bool // client was built here, so Stop closes it
	clock    vclock.Clock
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

// noopLocker is used when the registry has a single-threaded owner.
type noopLocker struct{}

func (noopLocker) Lock()   {}
func (noopLocker) Unlock() {}

// NewPoller creates a poller over reg. regMu must be the mutex guarding
// reg, or nil when the caller serializes access itself. A nil client gets
// a default one, which Stop closes; a caller's client is the caller's to
// close.
func NewPoller(reg *Registry, regMu sync.Locker, client *ibp.Client, clock vclock.Clock, interval time.Duration) *Poller {
	if regMu == nil {
		regMu = noopLocker{}
	}
	if clock == nil {
		clock = vclock.Real()
	}
	if interval <= 0 {
		interval = time.Minute
	}
	owned := client == nil
	if owned {
		client = ibp.NewClient()
	}
	return &Poller{
		reg:      reg,
		regMu:    regMu,
		client:   client,
		owned:    owned,
		clock:    clock,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// PollOnce refreshes every entry once and reports how many depots
// answered. Depots that do not answer keep their stale entry (liveness
// expiry, not the poller, removes dead depots).
func (p *Poller) PollOnce() int {
	p.regMu.Lock()
	entries := p.reg.Query(Requirements{})
	p.regMu.Unlock()
	answered := 0
	for _, d := range entries {
		st, err := p.client.Status(d.Addr)
		if err != nil {
			continue
		}
		answered++
		p.regMu.Lock()
		d.Capacity = st.AvailableBytes()
		d.MaxDuration = st.MaxDuration
		p.reg.Register(d) // also refreshes liveness
		p.regMu.Unlock()
	}
	return answered
}

// Run polls until Stop, sleeping interval between sweeps. Call in a
// goroutine.
func (p *Poller) Run() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		p.PollOnce()
		select {
		case <-p.stop:
			return
		case <-p.clock.After(p.interval):
		}
	}
}

// Stop terminates Run, waits for it to exit, and closes a client the
// poller built itself.
func (p *Poller) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
	if p.owned {
		p.client.Close()
	}
}
