// Package engine is the execution substrate: a real in-memory columnar
// executor (scans, three join algorithms, two aggregation algorithms) with
// deterministic work accounting and an execution budget, plus an analytic
// latency simulator (see latency.go) that stands in for "run the plan on the
// production system" in the paper's experiments.
package engine

import (
	"errors"
	"fmt"
	"strings"
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

// rel is one relation of a result: result row i is row ids[i] of table. ids
// may be shared with an index or another result and is never written.
type rel struct {
	alias string
	table *storage.Table
	ids   []int32
}

// Result is an intermediate or final result. A scan or join result is late-
// materialized — N rows, each a base-table row id per joined relation — and
// copies a column only when Column asks for it; an aggregation's result holds
// its output columns. Columns are keyed "alias.column".
type Result struct {
	N    int
	rels []rel
	cols map[string][]int64
}

// Column returns a result column by its "alias.column" key.
func (r *Result) Column(key string) ([]int64, error) {
	if c, ok := r.cols[key]; ok {
		return c, nil
	}
	alias, name, _ := strings.Cut(key, ".")
	v, err := r.view(alias, name)
	if err != nil {
		return nil, fmt.Errorf("engine: result has no column %s", key)
	}
	out := make([]int64, v.len())
	for i := range out {
		out[i] = v.at(int32(i))
	}
	return out, nil
}

// colView is one relation's column read through a result's row ids: what
// operators use where a copy of the column would do.
type colView struct {
	col []int64
	ids []int32
}

func (v colView) len() int         { return len(v.ids) }
func (v colView) at(i int32) int64 { return v.col[v.ids[i]] }

func (r *Result) view(alias, name string) (colView, error) {
	for _, rl := range r.rels {
		if rl.alias != alias {
			continue
		}
		if col, ok := rl.table.Cols[name]; ok {
			return colView{col, rl.ids}, nil
		}
		break
	}
	return colView{}, fmt.Errorf("engine: result has no column %s.%s", alias, name)
}

// has reports whether the result carries the relation.
func (r *Result) has(alias string) bool {
	for _, rl := range r.rels {
		if rl.alias == alias {
			return true
		}
	}
	return false
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

	mu     sync.Mutex
	btree  map[string]*btreeIndex
	hash   map[string]*keyIndex
	rowIDs []int32 // 0,1,2,…: see allRows
}

// New returns an executor over the database.
func New(db *storage.DB) *Engine {
	return &Engine{
		db:    db,
		btree: make(map[string]*btreeIndex),
		hash:  make(map[string]*keyIndex),
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
// emitted: execJoin charges each of them one RowsMaterialized and one
// TuplesEmitted, so counting them here refuses a fan-out join while it is
// still only a count, before any of its output is allocated. A run that
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

// allRows returns the row positions 0..n-1 of a base table. The slice is
// shared by every execution and is never written.
func (e *Engine) allRows(n int) []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.rowIDs) < n {
		// A fresh array, not an append: slices handed out earlier stay valid.
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		e.rowIDs = ids
	}
	return e.rowIDs[:n]
}

func (e *Engine) execScan(s *plan.Scan, w *Work) (*Result, error) {
	t, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	// rows are the candidates in scan order; they may alias an index or
	// allRows, so filtering below writes to a slice of its own.
	var rows []int32
	switch s.Access {
	case plan.SeqScan:
		w.TuplesRead += int64(t.N)
		rows = e.allRows(t.N)
	case plan.IndexScan:
		ix, err := e.btreeIndexFor(t, s.IndexColumn)
		if err != nil {
			return nil, err
		}
		rows = ix.lookupFilters(s.Filters, s.IndexColumn, w)
	case plan.HashIndexScan:
		ix, err := e.hashIndexFor(t, s.IndexColumn)
		if err != nil {
			return nil, err
		}
		var ok bool
		if rows, ok = hashLookup(ix, s.Filters, s.IndexColumn, w); !ok {
			// Hash indexes cannot serve ranges: every bucket is walked,
			// which in row order is every row.
			w.TuplesRead += int64(t.N)
			rows = e.allRows(t.N)
		}
	}
	if err := e.check(w, 0); err != nil {
		return nil, err
	}

	// Apply all filters (including residuals after an index lookup), one
	// column at a time: each filter is charged one comparison per row that
	// passed the filters before it, which is what evaluating them row by
	// row and stopping at the first failure charges.
	cols := make([][]int64, len(s.Filters))
	for i, f := range s.Filters {
		if cols[i], err = t.Column(f.Column); err != nil {
			return nil, err
		}
	}
	for i, f := range s.Filters {
		w.Comparisons += int64(len(rows))
		kept := rows[:0]
		if i == 0 {
			kept = make([]int32, 0, len(rows))
		}
		for _, r := range rows {
			if matches(f.Op, cols[i][r], f.Value) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if err := e.check(w, 0); err != nil {
		return nil, err
	}
	w.RowsMaterialized += int64(len(rows))
	w.TuplesEmitted += int64(len(rows))
	return &Result{N: len(rows), rels: []rel{{s.Alias, t, rows}}}, e.check(w, 0)
}

func (e *Engine) execAgg(a *plan.Agg, w *Work) (*Result, error) {
	child, err := e.exec(a.Child, w)
	if err != nil {
		return nil, err
	}
	return aggregate(a, child, w, e)
}
