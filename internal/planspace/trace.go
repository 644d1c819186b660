package planspace

import (
	"fmt"
	"sort"
	"strings"

	"handsfree/internal/featurize"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Replay drives the environment through the action sequence that constructs
// the given expert plan, recording the (state, action) trajectory — the
// episode history H_q of §5.1. Only the dimensions the environment's stages
// control are encoded; the rest of the expert's decisions are re-derived by
// the optimizer at completion time, exactly as during agent episodes.
//
// The final state's reward is whatever the environment's reward source
// produces for the completed episode; callers doing learning-from-
// demonstration typically relabel the trajectory with the expert plan's
// measured latency.
func (e *Env) Replay(q *query.Query, expert plan.Node) (rl.Trajectory, Outcome, error) {
	actions, err := e.planActions(q, expert)
	if err != nil {
		return rl.Trajectory{}, Outcome{}, err
	}
	var traj rl.Trajectory
	s := e.ResetTo(q)
	for _, a := range actions {
		if s.Terminal {
			return traj, Outcome{}, fmt.Errorf("planspace: expert trace too long for query %s", q.Name)
		}
		if a < 0 || a >= len(s.Mask) || !s.Mask[a] {
			return traj, Outcome{}, fmt.Errorf("planspace: expert action %d is masked for query %s", a, q.Name)
		}
		next, r, done := e.Step(a)
		traj.Steps = append(traj.Steps, rl.Step{Features: s.Features, Mask: s.Mask, Action: a, Reward: r})
		traj.Return += r
		s = next
		if done {
			break
		}
	}
	if !s.Terminal {
		return traj, Outcome{}, fmt.Errorf("planspace: expert trace did not finish query %s", q.Name)
	}
	return traj, e.Last, nil
}

// planActions converts an expert physical plan into this environment's
// action vocabulary.
func (e *Env) planActions(q *query.Query, expert plan.Node) ([]int, error) {
	var actions []int
	aliases := featurize.AliasIndex(q)

	// Leaf access decisions, in alias order (the env's cursor order).
	if e.Cfg.Stages.AccessPaths {
		leafOf := map[string]*plan.Scan{}
		for _, l := range plan.Leaves(expert) {
			leafOf[l.Alias] = l
		}
		opts := e.prepare(q).opts
		for i, a := range aliases {
			l, ok := leafOf[a]
			if !ok {
				return nil, fmt.Errorf("planspace: expert plan lacks relation %s", a)
			}
			choice := classifyScan(l, opts[i])
			if !opts[i].valid[choice] {
				choice = AccessSeq
			}
			actions = append(actions, e.Layout.AccessOffset()+choice)
		}
	}

	// Join decisions: simulate the forest and emit pair actions bottom-up.
	forest := make([]string, len(aliases)) // alias-set keys, forest order
	for i, a := range aliases {
		forest[i] = a
	}
	joins := joinSequence(expert)
	for _, jn := range joins {
		lKey := aliasKey(jn.Left.Aliases())
		rKey := aliasKey(jn.Right.Aliases())
		x := indexOf(forest, lKey)
		y := indexOf(forest, rKey)
		if x < 0 || y < 0 {
			return nil, fmt.Errorf("planspace: cannot locate subtrees %q/%q in forest", lKey, rKey)
		}
		algoIdx := 0
		if e.Cfg.Stages.JoinOps {
			algoIdx = algoIndex(jn.Algo)
		}
		actions = append(actions, e.Layout.EncodeJoin(x, y, algoIdx))
		// Mirror the env's forest mutation: remove x and y, append the join.
		var next []string
		for i, k := range forest {
			if i != x && i != y {
				next = append(next, k)
			}
		}
		forest = append(next, aliasKey(jn.Aliases()))
	}

	// Aggregation decision.
	if e.Cfg.Stages.AggOps && (len(q.Aggregates) > 0 || len(q.GroupBys) > 0) {
		algo := plan.HashAgg
		if a, ok := expert.(*plan.Agg); ok {
			algo = a.Algo
		}
		for i, cand := range plan.AggAlgos {
			if cand == algo {
				actions = append(actions, e.Layout.AggOffset()+i)
			}
		}
	}
	return actions, nil
}

// joinSequence returns the plan's join nodes in construction order
// (post-order: every join appears after both of its child joins).
func joinSequence(n plan.Node) []*plan.Join {
	var out []*plan.Join
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.Join:
			walk(n.Left)
			walk(n.Right)
			out = append(out, n)
		case *plan.Agg:
			walk(n.Child)
		}
	}
	walk(n)
	return out
}

func aliasKey(aliases map[string]bool) string {
	keys := make([]string, 0, len(aliases))
	for a := range aliases {
		keys = append(keys, a)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func indexOf(forest []string, key string) int {
	for i, k := range forest {
		if k == key {
			return i
		}
	}
	return -1
}
