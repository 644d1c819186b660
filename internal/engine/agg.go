package engine

import (
	"encoding/binary"
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
// different work, mirroring their cost asymmetry. Only the columns the
// aggregation names are read from the child; groups live in two flat arrays
// (keys, states), so a row costs no allocation unless it opens a group.
func aggregate(a *plan.Agg, child *Result, w *Work, e *Engine) (*Result, error) {
	if a.Algo != plan.HashAgg && a.Algo != plan.SortAgg {
		return nil, fmt.Errorf("engine: unknown aggregation algorithm %v", a.Algo)
	}
	groupCols := make([]colView, len(a.GroupBys))
	for i, g := range a.GroupBys {
		c, err := child.view(g.Alias, g.Column)
		if err != nil {
			return nil, err
		}
		groupCols[i] = c
	}
	aggCols := make([]colView, len(a.Aggregates))
	for i, ag := range a.Aggregates {
		if ag.Kind == query.AggCount && ag.Column == "" {
			continue // COUNT(*) reads no column: the view stays empty
		}
		c, err := child.view(ag.Alias, ag.Column)
		if err != nil {
			return nil, err
		}
		aggCols[i] = c
	}
	ng, na := len(groupCols), len(aggCols)

	// order is the processing order of rows; nil means input order.
	var order []int32
	if a.Algo == plan.SortAgg && ng > 0 {
		order = make([]int32, child.N)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(x, y int) bool {
			rx, ry := order[x], order[y]
			for _, gc := range groupCols {
				if vx, vy := gc.at(rx), gc.at(ry); vx != vy {
					return vx < vy
				}
			}
			return rx < ry
		})
		w.Comparisons += int64(child.N) * log2Charge(child.N)
	}

	var (
		groups int
		keys   []int64    // ng per group
		states []aggState // na per group
	)
	open := func(r int32) int {
		for _, gc := range groupCols {
			keys = append(keys, gc.at(r))
		}
		for _, ag := range a.Aggregates {
			states = append(states, aggState{kind: ag.Kind, min: maxInt64, max: minInt64})
		}
		groups++
		return groups - 1
	}
	index := map[string]int{} // HashAgg: encoded key → group
	var buf []byte
	for i := 0; i < child.N; i++ {
		r := int32(i)
		if order != nil {
			r = order[i]
		}
		var g int
		if a.Algo == plan.HashAgg {
			w.HashOps++
		} else {
			w.Comparisons++
		}
		if a.Algo == plan.HashAgg && ng > 0 {
			buf = buf[:0]
			for _, gc := range groupCols {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(gc.at(r)))
			}
			var ok bool
			if g, ok = index[string(buf)]; !ok {
				g = open(r)
				index[string(buf)] = g
			}
		} else {
			// Sorted (or ungrouped) input: the row continues the last group
			// or opens the next.
			g = groups - 1
			same := g >= 0
			for k := 0; same && k < ng; k++ {
				same = keys[g*ng+k] == groupCols[k].at(r)
			}
			if !same {
				g = open(r)
			}
		}
		st := states[g*na : (g+1)*na]
		for k := range st {
			if aggCols[k].col == nil {
				st[k].add(1) // COUNT(*)
			} else {
				st[k].add(aggCols[k].at(r))
			}
		}
		if err := e.check(w, 0); err != nil {
			return nil, err
		}
	}

	// Global aggregation over zero rows still yields one row.
	if ng == 0 && groups == 0 {
		open(0)
	}

	out := &Result{N: groups, cols: make(map[string][]int64, ng+na)}
	for i, g := range a.GroupBys {
		col := make([]int64, groups)
		for r := range col {
			col[r] = keys[r*ng+i]
		}
		out.cols[g.Alias+"."+g.Column] = col
	}
	for i, ag := range a.Aggregates {
		col := make([]int64, groups)
		for r := range col {
			col[r] = states[r*na+i].value()
		}
		out.cols[fmt.Sprintf("agg%d_%s", i, ag.Kind)] = col
	}
	w.TuplesEmitted += int64(out.N)
	w.RowsMaterialized += int64(out.N)
	return out, nil
}
