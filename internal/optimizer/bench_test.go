package optimizer

import (
	"math/rand"
	"testing"

	"handsfree/internal/plan"
)

// BenchmarkCompleteCold times CompletePhysical without a plan cache — the
// completion that ends a training episode on a cache miss — over random
// skeletons of 4 to 6 relations, the benchmark lifecycle's queries. "fresh"
// passes no leaf table, so every call prices each relation's access paths
// anew; "leaves" keeps each query's table across calls, as a training
// environment does.
func BenchmarkCompleteCold(b *testing.B) {
	p, w := fixture(b)
	qs, err := w.Training(6, 4, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	skeletons := make([]plan.Node, 64)
	for i := range skeletons {
		skeletons[i] = randomSkeleton(p, qs[i%len(qs)], rng)
	}
	for _, keep := range []bool{false, true} {
		name := "fresh"
		if keep {
			name = "leaves"
		}
		b.Run(name, func(b *testing.B) {
			leaves := make([]*Leaves, len(qs))
			for i, q := range qs {
				if keep {
					leaves[i] = p.NewLeaves(q)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(skeletons)
				p.CompletePhysicalMemo(qs[k%len(qs)], skeletons[k], nil, leaves[k%len(qs)])
			}
		})
	}
}
