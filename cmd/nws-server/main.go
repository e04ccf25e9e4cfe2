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

	"repro/internal/daemon"
	"repro/internal/nws"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:6770", "address to listen on")
	dm := daemon.New("nws-server")
	dm.LogFlag(flag.CommandLine)
	flag.Parse()
	dm.Start()

	s, err := nws.ServeNWS(*listen, nws.NewService(nil), dm.Logger)
	if err != nil {
		dm.Fatal("serve", err)
	}
	dm.Logger.Info("listening", "addr", s.Addr())
	<-dm.Stop
	if err := s.Close(); err != nil {
		dm.Fatal("close", err)
	}
}
