package planspace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/datagen"
	"handsfree/internal/featurize"
	"handsfree/internal/rl"
	"handsfree/internal/sketch"
)

// TestFeaturizationMatchesFreshScratch is the differential test of the
// featurization memos: an env's scratch keeps every query's alias index,
// constant blocks and subtree cardinalities (by relation set) across
// episodes, and TrainAsyncCtx's replicas keep theirs across calls. Every
// state such a long-lived env encodes must equal, bit for bit, the encoding
// of the same forest through a fresh Scratch. The workload has more queries
// than a scratch keeps, so entries are evicted and rebuilt on the way. It
// runs on both statistics sources, exact histograms and sketches.
func TestFeaturizationMatchesFreshScratch(t *testing.T) {
	const nQueries = 70 // past the scratch's bound of 64 queries
	f := fixture(t, nQueries, 2, 5)
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sk := sketch.NewEstimator(db.Catalog, sketch.NewAnalyzer(sketch.Config{}).Analyze(db.Store))
	for name, est := range map[string]featurize.Estimator{"exact": f.est, "sketch": sk} {
		t.Run(name, func(t *testing.T) {
			space := featurize.NewSpace(f.space.MaxRels, est)
			newEnv := func() *Env {
				return NewEnv(Config{Space: space, Planner: f.planner, Queries: f.queries, Seed: 3})
			}
			// fresh checks one state's join-state prefix against a throwaway
			// scratch's encoding of the env's current forest.
			fresh := func(t *testing.T, e *Env, features []float64, what string) {
				t.Helper()
				want := space.JoinStateInto(make([]float64, space.ObsDim()), e.cur, e.forest, &featurize.Scratch{})
				for i, w := range want {
					if math.Float64bits(features[i]) != math.Float64bits(w) {
						t.Fatalf("%s, query %s: feature %d = %v, a fresh scratch encodes %v", what, e.cur.Name, i, features[i], w)
					}
				}
			}

			// One env over a random interleaving of the queries.
			env := newEnv()
			rng := rand.New(rand.NewSource(5))
			pol := rl.RandomPolicy(6)
			for ep := 0; ep < 3*nQueries; ep++ {
				s := env.ResetTo(f.queries[rng.Intn(nQueries)])
				for !s.Terminal {
					fresh(t, env, s.Features, fmt.Sprintf("episode %d", ep))
					s, _, _ = env.Step(pol(s))
				}
			}

			// Two kept actor replicas over several TrainAsyncCtx calls: each
			// recorded state is checked by replaying its episode's actions.
			base := newEnv()
			agent := rl.NewReinforce(base.ObsDim(), base.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 7})
			replay := newEnv()
			for chunk := 0; chunk < 3; chunk++ {
				var recs []EpisodeRecord
				TrainAsyncCtx(context.Background(), base, agent, nQueries, rl.AsyncConfig{Actors: 2}, func(_ int, rec EpisodeRecord) {
					recs = append(recs, rec)
				})
				for i, rec := range recs {
					replay.ResetTo(rec.Query)
					for j, st := range rec.Traj.Steps {
						fresh(t, replay, st.Features, fmt.Sprintf("chunk %d episode %d step %d", chunk, i, j))
						replay.Step(st.Action)
					}
				}
			}
		})
	}
}
