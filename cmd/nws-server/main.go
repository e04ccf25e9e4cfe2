// Command nws-server runs a Network Weather Service daemon: sensors
// RECORD bandwidth/latency measurements, clients request FORECASTs that
// the Logistical Tools use to pick download sources (paper §2.2).
//
// Usage:
//
//	nws-server -listen :6770
package main

import (
	"flag"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/nws"
	"repro/internal/obs"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:6770", "address to listen on")
		logJSON = flag.Bool("log-json", false, "emit structured logs as JSON (default: human-readable text)")
	)
	flag.Parse()

	svc := nws.NewService(nil)
	logger := obs.NewLogger(obs.LogConfig{JSON: *logJSON, Component: "nws-server"})
	s, err := nws.ServeNWS(*listen, svc, logger)
	if err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", s.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("shutting down")
	if err := s.Close(); err != nil {
		logger.Error("close", "err", err)
		os.Exit(1)
	}
}
