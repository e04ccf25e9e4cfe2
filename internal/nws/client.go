package nws

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/wire"
)

// Client queries a remote NWS daemon. It satisfies the same Forecast /
// Record shape as a local *Service, so the Logistical Tools can use either
// ("Download is written to check and see if the NWS is available locally",
// paper §2.3 — and fall back gracefully when it is not).
type Client struct {
	addr string
}

// The client's dial and whole-exchange bounds.
const (
	dialTimeout = 3 * time.Second
	opTimeout   = 10 * time.Second
)

// NewRemote builds a client for the NWS daemon at addr.
func NewRemote(addr string) *Client { return &Client{addr: addr} }

func (c *Client) connect() (*wire.Conn, error) {
	raw, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("nws: dial %s: %w", c.addr, err)
	}
	if err := raw.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		raw.Close()
		return nil, err
	}
	return wire.NewConn(raw), nil
}

// Record submits a measurement. Errors are swallowed by design: losing a
// measurement must never fail the operation being measured.
func (c *Client) Record(src, dst string, res Resource, value float64) {
	conn, err := c.connect()
	if err != nil {
		return
	}
	defer conn.Close()
	if err := conn.WriteLine(opRecord, src, dst, string(res),
		strconv.FormatFloat(value, 'g', -1, 64)); err != nil {
		return
	}
	conn.ReadStatus()
}

// Forecast asks the daemon for a prediction; ok is false when the series
// is unknown or the daemon is unreachable.
func (c *Client) Forecast(src, dst string, res Resource) (float64, bool) {
	conn, err := c.connect()
	if err != nil {
		return 0, false
	}
	defer conn.Close()
	if err := conn.WriteLine(opForecast, src, dst, string(res)); err != nil {
		return 0, false
	}
	toks, err := conn.ReadStatus()
	if err != nil || len(toks) != 1 {
		return 0, false
	}
	v, err := strconv.ParseFloat(toks[0], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
