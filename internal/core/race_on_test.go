//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items and its
// instrumentation allocates, so allocation counts do not hold under it.
const raceEnabled = true
