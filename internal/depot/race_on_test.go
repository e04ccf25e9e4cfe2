//go:build race

package depot

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// the buffers put back at random, so pool-hit accounting does not hold.
const raceEnabled = true
