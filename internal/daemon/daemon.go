// Package daemon is the scaffold every daemon main in cmd/ shares: the
// flags they all take, the process's one logger and flight recorder, the
// SIGINT/SIGTERM stop signal, and the control endpoint that serves the
// daemon's HTTP surface and announces it to the fleet. A main registers
// the flags it takes, parses them, calls Start, and is then only its own
// wiring.
package daemon

import (
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Daemon is one daemon process's scaffold.
type Daemon struct {
	// Logger is the process's one structured logger; it also feeds
	// Recorder.
	Logger *slog.Logger
	// Recorder retains the process's recent records for postmortems.
	Recorder *obs.FlightRecorder
	// Stop closes on the first SIGINT or SIGTERM.
	Stop <-chan struct{}

	component string
	listen    string // the HTTP surface's address ("" = no surface)
	pprof     bool
	logJSON   bool
}

// New starts the scaffold of the daemon named component.
func New(component string) *Daemon { return &Daemon{component: component} }

// LogFlag registers -log-json on fs.
func (d *Daemon) LogFlag(fs *flag.FlagSet) {
	fs.BoolVar(&d.logJSON, "log-json", false, "emit structured logs as JSON (default: human-readable text)")
}

// SurfaceFlags registers the HTTP surface's listen address on fs under
// name, with value as its default, and -pprof.
func (d *Daemon) SurfaceFlags(fs *flag.FlagSet, name, value, usage string) {
	fs.StringVar(&d.listen, name, value, usage)
	fs.BoolVar(&d.pprof, "pprof", false, "also serve /debug/pprof on the metrics listener")
}

// Start builds the logger and flight recorder and arms the stop signal.
// Call it once the flags are parsed.
func (d *Daemon) Start() {
	d.Recorder = obs.NewFlightRecorder(0)
	d.Logger = obs.NewLogger(obs.LogConfig{JSON: d.logJSON, Component: d.component, Recorder: d.Recorder})
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		d.Logger.Info("shutting down")
		close(stop)
	}()
	d.Stop = stop
}

// Fatal logs msg with err and exits 1.
func (d *Daemon) Fatal(msg string, err error) {
	d.Logger.Error(msg, "err", err)
	os.Exit(1)
}

// ServeControl is a daemon's control endpoint from flag to fleet: it
// serves s on the surface flag's address (with /debug/pprof under -pprof)
// and returns the address peers can dial, or "" when the flag is empty.
// With a registry client it also announces that address as ci (whose Addr
// it fills in) until stop closes, and appends the client's
// registry_client_* samples after s's own /metrics. c may be nil: a
// daemon run without a registry still serves.
func (d *Daemon) ServeControl(c *registry.QuorumClient, s obs.Surface, ci lbone.ControlInfo,
	interval time.Duration, stop <-chan struct{}) (string, error) {
	if d.listen == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", d.listen)
	if err != nil {
		return "", err
	}
	s.Pprof = d.pprof
	if c != nil {
		s.Tail = append(s.Tail, func(b *strings.Builder) { obs.WriteMetrics(b, c.Metrics()) })
	}
	ci.Addr = lbone.AdvertisedControlAddr(ln.Addr().String())
	go func() {
		d.Logger.Info("metrics listening", "url", "http://"+ci.Addr+"/metrics")
		if err := http.Serve(ln, s.Mux()); err != nil && !errors.Is(err, net.ErrClosed) {
			d.Logger.Error("metrics listener", "err", err)
		}
	}()
	if c != nil {
		c.AnnounceControl(ci, interval, d.Logger, stop) //nolint:errcheck // logged, retried
	}
	return ci.Addr, nil
}

// DiscoverDepots returns a depot-address source over the registry's
// depot table, for a monitor's Discover hook: a failed query is logged
// and yields no depots, so the next sweep simply asks again.
func (d *Daemon) DiscoverDepots(c *registry.QuorumClient) func() []string {
	return func() []string {
		infos, err := c.Query(lbone.Requirements{})
		if err != nil {
			d.Logger.Warn("depot discovery", "err", err)
			return nil
		}
		addrs := make([]string, len(infos))
		for i, info := range infos {
			addrs[i] = info.Addr
		}
		return addrs
	}
}
