//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. Allocation
// ceilings skip under -race: detector instrumentation allocates shadow state
// inside the measured functions.
const raceEnabled = true
