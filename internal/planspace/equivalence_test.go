package planspace

import (
	"math"
	"reflect"
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// equivalenceQueries widens generated queries into the shapes relation
// bitmasks must get right: every third gains a self-join alias (a second
// alias of one relation's table, joined to the same neighbours), and every
// seventh loses all join predicates of its last relation, so its graph is
// disconnected and cross products are legal.
func equivalenceQueries(qs []*query.Query) []*query.Query {
	for i, q := range qs {
		if i%3 == 0 {
			r := q.Relations[i%len(q.Relations)]
			twin := r.Alias + "2"
			q.Relations = append(q.Relations, query.Relation{Table: r.Table, Alias: twin})
			for _, j := range q.Joins {
				switch r.Alias {
				case j.LeftAlias:
					j.LeftAlias = twin
				case j.RightAlias:
					j.RightAlias = twin
				default:
					continue
				}
				q.Joins = append(q.Joins, j)
			}
		}
		if i%7 == 0 {
			last := q.Relations[len(q.Relations)-1].Alias
			kept := q.Joins[:0]
			for _, j := range q.Joins {
				if j.LeftAlias != last && j.RightAlias != last {
					kept = append(kept, j)
				}
			}
			q.Joins = kept
		}
		if err := q.Validate(); err != nil {
			panic(err)
		}
	}
	return qs
}

// TestSkeletonPredsEquivalence is the gate for building skeleton joins from
// relation bitmasks. Random masked action sequences run over 210 generated
// queries of 4 to 8 relations (see equivalenceQueries) under every completion
// mode, the four stage sets running concurrently on one shared plan cache the
// way serving envs run beside training. Every join a step builds must carry
// exactly the predicates plan.JoinNodes attaches to the same inputs, every
// forest entry's relation bits must be its leaves' alias positions, and an
// env with the plan cache must finish each episode with the plan and cost
// bits of an env without one. The optimizer's TestCompletionPredsEquivalence
// checks the completion side against candidates rebuilt with JoinNodes.
func TestSkeletonPredsEquivalence(t *testing.T) {
	f := fixture(t, 210, 4, 8)
	qs := equivalenceQueries(f.queries)
	space := featurize.NewSpace(9, f.est)
	cache := plancache.New(plancache.Config{})
	for _, mode := range []struct {
		name string
		st   Stages
	}{
		{"CompletePhysical", Stages{}},
		{"CompleteOperators", Stages{AccessPaths: true}},
		{"CompleteAccess", Stages{JoinOps: true}},
		{"CostFixed", StagePrefix(4)},
	} {
		st := mode.st
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			plain := NewEnv(Config{Space: space, Stages: st, Planner: f.planner, Queries: qs})
			cached := NewEnv(Config{Space: space, Stages: st, Planner: f.planner, Queries: qs, Cache: cache})
			for i, q := range qs {
				a := episodeCheckingPreds(t, plain, q, rl.RandomPolicy(int64(i)))
				b := episodeCheckingPreds(t, cached, q, rl.RandomPolicy(int64(i)))
				if a.Plan.Signature() != b.Plan.Signature() || math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
					t.Fatalf("query %d: uncached %s (%v), cached %s (%v)", i, a.Plan.Signature(), a.Cost, b.Plan.Signature(), b.Cost)
				}
			}
		})
	}
}

// episodeCheckingPreds runs one episode of e on q under choose, checking
// every join step against plan.JoinNodes and every forest entry's relation
// bits against its leaves.
func episodeCheckingPreds(t *testing.T, e *Env, q *query.Query, choose func(rl.State) int) Outcome {
	t.Helper()
	pos := map[string]int{}
	for i, a := range featurize.AliasIndex(q) {
		pos[a] = i
	}
	s := e.ResetTo(q)
	for !s.Terminal {
		act := choose(s)
		if act < 0 {
			t.Fatalf("%s: no valid action", q.Name)
		}
		joining := e.ph == phaseJoin
		var want *plan.Join
		if joining {
			x, y, algoIdx := e.Layout.DecodeJoin(act)
			algo := plan.NestLoop
			if e.Cfg.Stages.JoinOps {
				algo = plan.JoinAlgos[algoIdx]
			}
			want = plan.JoinNodes(q, algo, e.forest[x], e.forest[y])
		}
		s, _, _ = e.Step(act)
		if joining {
			got := e.forest[len(e.forest)-1].(*plan.Join)
			if got.Algo != want.Algo || got.Left != want.Left || got.Right != want.Right || !reflect.DeepEqual(got.Preds, want.Preds) {
				t.Fatalf("%s: step built %s with %v, JoinNodes %s with %v", q.Name, got.Signature(), got.Preds, want.Signature(), want.Preds)
			}
		}
		for i, n := range e.forest {
			var bits uint32
			for _, l := range plan.Leaves(n) {
				bits |= 1 << pos[l.Alias]
			}
			if e.rels[i] != bits {
				t.Fatalf("%s: forest entry %d has relation bits %b, leaves %b", q.Name, i, e.rels[i], bits)
			}
		}
	}
	if e.Last.Plan == nil || math.IsInf(e.Last.Cost, 1) {
		t.Fatalf("%s: episode ended without a costed plan", q.Name)
	}
	return e.Last
}
