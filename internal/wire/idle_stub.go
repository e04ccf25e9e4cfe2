//go:build !unix

package wire

// readFunc has no descriptor-level form here; CheckIdle falls back to
// the deadline read.
func (p *idleProbe) readFunc() func(uintptr) bool { return nil }
