//go:build !unix

package wire

import "net"

// checkIdleSocket has no descriptor-level form here; CheckIdle falls
// back to the deadline read.
func checkIdleSocket(net.Conn) (bool, error) { return false, nil }
