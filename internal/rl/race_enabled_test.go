//go:build race

package rl

// raceEnabled reports whether the race detector is compiled in: the
// allocation counts skip under -race, whose instrumentation allocates inside
// the measured functions.
const raceEnabled = true
