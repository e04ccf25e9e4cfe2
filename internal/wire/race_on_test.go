//go:build race

package wire

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts do not hold.
const raceEnabled = true
