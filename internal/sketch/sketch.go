// Package sketch provides probabilistic data summaries — HyperLogLog for
// distinct counts, Count-Min for frequency estimation, and reservoir
// sampling for value distributions and approximate execution — as the
// scalable alternative to the exact per-column histograms in
// internal/stats. Every sketch is built in one pass over column data and is
// mergeable (so per-shard sketches combine into a global one without
// re-reading data).
//
// The package feeds two consumers: sketch.Estimator mirrors the exact
// System-R estimator's formulas over sketches alone, so the cost model,
// the optimizer's DP, and the learned featurization can plan without ever
// touching a histogram; and the engine's approximate execution mode runs
// sample-and-scale aggregates over the per-table row samples with
// bootstrap confidence intervals.
package sketch

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer. Column
// values here are small sequential integers, so a weak hash (e.g. FNV over
// raw bytes) would leave HyperLogLog register indices correlated with the
// values; the finalizer decorrelates them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextRand advances a splitmix64 PRNG whose whole state is one word, so
// sketches that sample (reservoirs) keep their stream in one exported word
// and stay reproducible without dragging math/rand state along.
func nextRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return mix64(*state)
}
