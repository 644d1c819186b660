package engine

import (
	"fmt"
	"sort"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// aggState accumulates one aggregate function over a group.
type aggState struct {
	kind  query.AggKind
	count int64
	min   int64
	max   int64
	sum   int64
}

func newAggState(kind query.AggKind) *aggState {
	return &aggState{kind: kind, min: maxInt64, max: minInt64}
}

func (s *aggState) add(v int64) {
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.sum += v
}

func (s *aggState) value() int64 {
	switch s.kind {
	case query.AggCount:
		return s.count
	case query.AggMin:
		if s.count == 0 {
			return 0
		}
		return s.min
	case query.AggMax:
		if s.count == 0 {
			return 0
		}
		return s.max
	case query.AggSum:
		return s.sum
	default:
		return 0
	}
}

// aggregate evaluates a grouped (or global) aggregation over child rows.
// HashAgg groups through a map; SortAgg sorts by the grouping key and
// aggregates adjacent runs. Both produce identical results and are charged
// different work, mirroring their cost asymmetry.
func aggregate(a *plan.Agg, child *Result, w *Work, e *Engine) (*Result, error) {
	groupCols := make([][]int64, len(a.GroupBys))
	for i, g := range a.GroupBys {
		c, err := child.Column(g.Alias + "." + g.Column)
		if err != nil {
			return nil, err
		}
		groupCols[i] = c
	}
	aggCols := make([][]int64, len(a.Aggregates))
	for i, ag := range a.Aggregates {
		if ag.Kind == query.AggCount && ag.Column == "" {
			continue // COUNT(*) reads no column
		}
		c, err := child.Column(ag.Alias + "." + ag.Column)
		if err != nil {
			return nil, err
		}
		aggCols[i] = c
	}

	// Determine the processing order of rows.
	order := make([]int32, child.N)
	for i := range order {
		order[i] = int32(i)
	}
	if a.Algo == plan.SortAgg && len(groupCols) > 0 {
		sort.Slice(order, func(x, y int) bool {
			rx, ry := order[x], order[y]
			for _, gc := range groupCols {
				if gc[rx] != gc[ry] {
					return gc[rx] < gc[ry]
				}
			}
			return rx < ry
		})
		logn := int64(1)
		for v := child.N; v > 1; v >>= 1 {
			logn++
		}
		w.Comparisons += int64(child.N) * logn
	}

	type group struct {
		key    []int64
		states []*aggState
	}
	var groups []*group
	index := map[string]*group{}

	keyOf := func(r int32) ([]int64, string) {
		key := make([]int64, len(groupCols))
		buf := make([]byte, 0, 16*len(groupCols))
		for i, gc := range groupCols {
			key[i] = gc[r]
			v := gc[r]
			for s := 0; s < 8; s++ {
				buf = append(buf, byte(v>>(8*s)))
			}
		}
		return key, string(buf)
	}

	var cur *group
	var curKey string
	for _, r := range order {
		key, ks := keyOf(r)
		var g *group
		switch a.Algo {
		case plan.HashAgg:
			w.HashOps++
			g = index[ks]
			if g == nil {
				g = &group{key: key, states: newStates(a.Aggregates)}
				index[ks] = g
				groups = append(groups, g)
			}
		case plan.SortAgg:
			w.Comparisons++
			if cur == nil || ks != curKey {
				cur = &group{key: key, states: newStates(a.Aggregates)}
				curKey = ks
				groups = append(groups, cur)
			}
			g = cur
		default:
			return nil, fmt.Errorf("engine: unknown aggregation algorithm %v", a.Algo)
		}
		for i, st := range g.states {
			if aggCols[i] == nil {
				st.add(1) // COUNT(*)
			} else {
				st.add(aggCols[i][r])
			}
		}
		if err := e.check(w, 0); err != nil {
			return nil, err
		}
	}

	// Global aggregation over zero rows still yields one row.
	if len(groupCols) == 0 && len(groups) == 0 {
		groups = append(groups, &group{states: newStates(a.Aggregates)})
	}

	out := &Result{N: len(groups), Cols: make(map[string][]int64)}
	for i, g := range a.GroupBys {
		col := make([]int64, len(groups))
		for r, grp := range groups {
			col[r] = grp.key[i]
		}
		out.Cols[g.Alias+"."+g.Column] = col
	}
	for i, ag := range a.Aggregates {
		col := make([]int64, len(groups))
		for r, grp := range groups {
			col[r] = grp.states[i].value()
		}
		out.Cols[fmt.Sprintf("agg%d_%s", i, ag.Kind)] = col
	}
	w.TuplesEmitted += int64(out.N)
	w.RowsMaterialized += int64(out.N)
	return out, nil
}

func newStates(aggs []query.Aggregate) []*aggState {
	states := make([]*aggState, len(aggs))
	for i, a := range aggs {
		states[i] = newAggState(a.Kind)
	}
	return states
}
