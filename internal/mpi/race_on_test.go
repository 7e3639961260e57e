//go:build race

package mpi

// raceEnabled: the race detector makes sync.Pool drop items and its
// instrumentation allocates, so allocation bounds are looser under it.
const raceEnabled = true
