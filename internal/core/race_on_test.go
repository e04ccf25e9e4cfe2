//go:build race

package core

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// the buffers put back at random, so heap-byte bounds do not hold.
const raceEnabled = true
