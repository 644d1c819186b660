// Package engine is the execution substrate: a real in-memory columnar
// executor (scans, three join algorithms, two aggregation algorithms) with
// deterministic work accounting and an execution budget, plus an analytic
// latency simulator (see latency.go) that stands in for "run the plan on the
// production system" in the paper's experiments.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// ErrBudget is returned when plan execution exceeds the engine's work
// budget. This is the executable form of the paper's footnote 2: plans
// produced by an untrained agent "could not be executed in any reasonable
// amount of time".
var ErrBudget = errors.New("engine: execution work budget exceeded")

// Work counts the effort spent executing a plan. It is deterministic for a
// given (database, plan) pair, which makes it usable as a reproducible
// latency proxy.
type Work struct {
	TuplesRead       int64 // rows fetched from base tables
	TuplesEmitted    int64 // rows produced by operators
	IndexProbes      int64 // index lookups performed
	HashOps          int64 // hash-table inserts + probes
	Comparisons      int64 // predicate/merge comparisons
	RowsMaterialized int64 // rows copied into intermediate results

	// budget, when > 0, bounds Total() for this call (set by ExecuteBudget;
	// kept here so concurrent executions each carry their own bound).
	budget int64
}

// Total returns a single scalar summary of the work performed.
func (w *Work) Total() int64 {
	return w.TuplesRead + w.TuplesEmitted + w.IndexProbes + w.HashOps + w.Comparisons + w.RowsMaterialized
}

// Result is a materialized intermediate or final result. Columns are keyed
// "alias.column".
type Result struct {
	N    int
	Cols map[string][]int64
}

// Column returns a result column by its "alias.column" key.
func (r *Result) Column(key string) ([]int64, error) {
	c, ok := r.Cols[key]
	if !ok {
		return nil, fmt.Errorf("engine: result has no column %s", key)
	}
	return c, nil
}

// Engine executes physical plans against a storage.DB. Execute and
// ExecuteBudget are safe for concurrent use: per-call state lives in the
// Work accounting and the lazily built index caches are mutex-guarded.
type Engine struct {
	db *storage.DB
	// Budget bounds Work.Total() during one Execute call; 0 means unlimited.
	// It is the engine-wide default — set it before serving begins;
	// ExecuteBudget carries a per-call bound instead.
	Budget int64

	mu    sync.Mutex
	btree map[string]*btreeIndex
	hash  map[string]*hashIndex
}

// New returns an executor over the database.
func New(db *storage.DB) *Engine {
	return &Engine{
		db:    db,
		btree: make(map[string]*btreeIndex),
		hash:  make(map[string]*hashIndex),
	}
}

// Execute runs the plan for query q and returns the result and the work
// performed. If the engine's budget is exceeded, it returns ErrBudget along
// with the partial work counts.
func (e *Engine) Execute(q *query.Query, root plan.Node) (*Result, *Work, error) {
	return e.ExecuteBudget(q, root, 0)
}

// ExecuteBudget is Execute under a per-call work budget (0 falls back to the
// engine-wide Budget). Concurrent calls may each carry a different budget.
func (e *Engine) ExecuteBudget(q *query.Query, root plan.Node, budget int64) (*Result, *Work, error) {
	w := &Work{budget: budget}
	res, err := e.exec(root, w)
	return res, w, err
}

// check returns ErrBudget once the work done plus the work already owed
// exceeds the budget. pending is the number of matched join pairs not yet
// materialized: emitJoin charges each of them one RowsMaterialized and one
// TuplesEmitted, so counting them here stops a fan-out join while it holds
// only row indices, before its output columns are allocated. A run that
// finishes is charged exactly what it was without the look-ahead.
func (e *Engine) check(w *Work, pending int) error {
	limit := e.Budget
	if w.budget > 0 {
		limit = w.budget
	}
	if limit > 0 && w.Total()+2*int64(pending) > limit {
		return ErrBudget
	}
	return nil
}

func (e *Engine) exec(n plan.Node, w *Work) (*Result, error) {
	switch n := n.(type) {
	case *plan.Scan:
		return e.execScan(n, w)
	case *plan.Join:
		return e.execJoin(n, w)
	case *plan.Agg:
		return e.execAgg(n, w)
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// matches evaluates a filter against a value.
func matches(op query.CmpOp, v, c int64) bool {
	switch op {
	case query.Eq:
		return v == c
	case query.Ne:
		return v != c
	case query.Lt:
		return v < c
	case query.Le:
		return v <= c
	case query.Gt:
		return v > c
	case query.Ge:
		return v >= c
	default:
		return false
	}
}

// gatherRows materializes the given row positions of a table into a Result
// with alias-prefixed columns.
func gatherRows(t *storage.Table, alias string, rows []int32, w *Work) *Result {
	out := &Result{N: len(rows), Cols: make(map[string][]int64, len(t.Cols))}
	for name, col := range t.Cols {
		vals := make([]int64, len(rows))
		for i, r := range rows {
			vals[i] = col[r]
		}
		out.Cols[alias+"."+name] = vals
	}
	w.RowsMaterialized += int64(len(rows))
	return out
}

func (e *Engine) execScan(s *plan.Scan, w *Work) (*Result, error) {
	t, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	var candidates []int32

	switch s.Access {
	case plan.SeqScan:
		w.TuplesRead += int64(t.N)
		candidates = make([]int32, t.N)
		for i := range candidates {
			candidates[i] = int32(i)
		}
	case plan.IndexScan:
		ix, err := e.btreeIndexFor(t, s.IndexColumn)
		if err != nil {
			return nil, err
		}
		candidates = ix.lookupFilters(s.Filters, s.IndexColumn, t.N, w)
	case plan.HashIndexScan:
		ix, err := e.hashIndexFor(t, s.IndexColumn)
		if err != nil {
			return nil, err
		}
		candidates = ix.lookupFilters(s.Filters, s.IndexColumn, t.N, w)
	}
	if err := e.check(w, 0); err != nil {
		return nil, err
	}

	// Apply all filters (including residuals after an index lookup).
	kept := candidates[:0]
	cols := make(map[string][]int64, len(s.Filters))
	for _, f := range s.Filters {
		c, err := t.Column(f.Column)
		if err != nil {
			return nil, err
		}
		cols[f.Column] = c
	}
	for _, r := range candidates {
		ok := true
		for _, f := range s.Filters {
			w.Comparisons++
			if !matches(f.Op, cols[f.Column][r], f.Value) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	if err := e.check(w, 0); err != nil {
		return nil, err
	}
	res := gatherRows(t, s.Alias, kept, w)
	w.TuplesEmitted += int64(res.N)
	return res, e.check(w, 0)
}

// joinKeyCols resolves which result columns hold each side's join keys.
// Predicate sides may be swapped relative to the plan's left/right inputs.
func joinKeyCols(left, right *Result, preds []query.Join) (lk, rk [][]int64, err error) {
	for _, p := range preds {
		lcol := p.LeftAlias + "." + p.LeftCol
		rcol := p.RightAlias + "." + p.RightCol
		if lc, ok := left.Cols[lcol]; ok {
			rc, ok := right.Cols[rcol]
			if !ok {
				return nil, nil, fmt.Errorf("engine: join column %s not in right input", rcol)
			}
			lk = append(lk, lc)
			rk = append(rk, rc)
			continue
		}
		// Swapped: the predicate's "left" column lives in the right input.
		lc, ok := left.Cols[rcol]
		if !ok {
			return nil, nil, fmt.Errorf("engine: join column %s/%s not in left input", lcol, rcol)
		}
		rc, ok := right.Cols[lcol]
		if !ok {
			return nil, nil, fmt.Errorf("engine: join column %s not in right input", lcol)
		}
		lk = append(lk, lc)
		rk = append(rk, rc)
	}
	return lk, rk, nil
}

// emitJoin materializes matched row pairs into a combined result.
func emitJoin(left, right *Result, li, ri []int32, w *Work) *Result {
	out := &Result{N: len(li), Cols: make(map[string][]int64, len(left.Cols)+len(right.Cols))}
	for name, col := range left.Cols {
		vals := make([]int64, len(li))
		for i, r := range li {
			vals[i] = col[r]
		}
		out.Cols[name] = vals
	}
	for name, col := range right.Cols {
		vals := make([]int64, len(ri))
		for i, r := range ri {
			vals[i] = col[r]
		}
		out.Cols[name] = vals
	}
	w.RowsMaterialized += int64(len(li))
	w.TuplesEmitted += int64(len(li))
	return out
}

func (e *Engine) execJoin(j *plan.Join, w *Work) (*Result, error) {
	left, err := e.exec(j.Left, w)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(j.Right, w)
	if err != nil {
		return nil, err
	}
	lk, rk, err := joinKeyCols(left, right, j.Preds)
	if err != nil {
		return nil, err
	}

	var li, ri []int32
	switch {
	case len(j.Preds) == 0:
		// Cross product.
		for a := 0; a < left.N; a++ {
			for b := 0; b < right.N; b++ {
				w.Comparisons++
				li = append(li, int32(a))
				ri = append(ri, int32(b))
			}
			if err := e.check(w, len(li)); err != nil {
				return nil, err
			}
		}
	case j.Algo == plan.HashJoin:
		li, ri, err = e.hashJoin(left, right, lk, rk, w)
	case j.Algo == plan.MergeJoin:
		li, ri, err = e.mergeJoin(left, right, lk, rk, w)
	default:
		li, ri, err = e.nestLoopJoin(left, right, lk, rk, w)
	}
	if err != nil {
		return nil, err
	}
	if err := e.check(w, len(li)); err != nil {
		return nil, err
	}
	return emitJoin(left, right, li, ri, w), nil
}

func (e *Engine) nestLoopJoin(left, right *Result, lk, rk [][]int64, w *Work) ([]int32, []int32, error) {
	var li, ri []int32
	for a := 0; a < left.N; a++ {
		for b := 0; b < right.N; b++ {
			ok := true
			for k := range lk {
				w.Comparisons++
				if lk[k][a] != rk[k][b] {
					ok = false
					break
				}
			}
			if ok {
				li = append(li, int32(a))
				ri = append(ri, int32(b))
			}
		}
		if err := e.check(w, len(li)); err != nil {
			return nil, nil, err
		}
	}
	return li, ri, nil
}

func (e *Engine) hashJoin(left, right *Result, lk, rk [][]int64, w *Work) ([]int32, []int32, error) {
	// Build on the right input (first key column), probe with the left.
	build := make(map[int64][]int32, right.N)
	for b := 0; b < right.N; b++ {
		w.HashOps++
		key := rk[0][b]
		build[key] = append(build[key], int32(b))
	}
	if err := e.check(w, 0); err != nil {
		return nil, nil, err
	}
	var li, ri []int32
	for a := 0; a < left.N; a++ {
		w.HashOps++
		for _, b := range build[lk[0][a]] {
			ok := true
			for k := 1; k < len(lk); k++ {
				w.Comparisons++
				if lk[k][a] != rk[k][b] {
					ok = false
					break
				}
			}
			if ok {
				li = append(li, int32(a))
				ri = append(ri, int32(b))
			}
		}
		// Every probe row, not every few thousand: one skewed key can add
		// right.N pairs per row.
		if err := e.check(w, len(li)); err != nil {
			return nil, nil, err
		}
	}
	return li, ri, nil
}

func (e *Engine) mergeJoin(left, right *Result, lk, rk [][]int64, w *Work) ([]int32, []int32, error) {
	lo := sortedOrder(left.N, lk[0], w)
	ro := sortedOrder(right.N, rk[0], w)
	var li, ri []int32
	i, j := 0, 0
	for i < left.N && j < right.N {
		w.Comparisons++
		a, b := lk[0][lo[i]], rk[0][ro[j]]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			// Emit the full group × group block for this key.
			jEnd := j
			for jEnd < right.N && rk[0][ro[jEnd]] == a {
				jEnd++
			}
			iEnd := i
			for iEnd < left.N && lk[0][lo[iEnd]] == a {
				iEnd++
			}
			for x := i; x < iEnd; x++ {
				for y := j; y < jEnd; y++ {
					ok := true
					for k := 1; k < len(lk); k++ {
						w.Comparisons++
						if lk[k][lo[x]] != rk[k][ro[y]] {
							ok = false
							break
						}
					}
					if ok {
						li = append(li, lo[x])
						ri = append(ri, ro[y])
					}
				}
				if err := e.check(w, len(li)); err != nil {
					return nil, nil, err
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return li, ri, nil
}

// sortedOrder returns row positions ordered by key, charging n·log n
// comparisons to the work counter.
func sortedOrder(n int, key []int64, w *Work) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	logn := int64(1)
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	w.Comparisons += int64(n) * logn
	return order
}

func (e *Engine) execAgg(a *plan.Agg, w *Work) (*Result, error) {
	child, err := e.exec(a.Child, w)
	if err != nil {
		return nil, err
	}
	return aggregate(a, child, w, e)
}
