// Package engine is the execution substrate: a real in-memory columnar
// executor (scans, three join algorithms, two aggregation algorithms) with
// deterministic work accounting and an execution budget, plus an analytic
// latency simulator (see latency.go) that stands in for "run the plan on the
// production system" in the paper's experiments.
package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// add charges d's six counters to w.
func (w *Work) add(d *Work) {
	w.TuplesRead += d.TuplesRead
	w.TuplesEmitted += d.TuplesEmitted
	w.IndexProbes += d.IndexProbes
	w.HashOps += d.HashOps
	w.Comparisons += d.Comparisons
	w.RowsMaterialized += d.RowsMaterialized
}

// since returns what w has been charged beyond before.
func (w *Work) since(before *Work) Work {
	return Work{
		TuplesRead:       w.TuplesRead - before.TuplesRead,
		TuplesEmitted:    w.TuplesEmitted - before.TuplesEmitted,
		IndexProbes:      w.IndexProbes - before.IndexProbes,
		HashOps:          w.HashOps - before.HashOps,
		Comparisons:      w.Comparisons - before.Comparisons,
		RowsMaterialized: w.RowsMaterialized - before.RowsMaterialized,
	}
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
// its output columns. Columns are keyed "alias.column". A Result may be the
// memo's and every other execution's of the same plan: nothing writes to one
// once it is built.
//
// A cross product inside a plan is not written out: its Result keeps the
// factors (scans, keyed joins) and no rows of its own, row x being each
// factor's row in mixed radix, the last factor's varying fastest (see
// product.go). Hash and nested-loop joins read it factor by factor; a merge
// join, an aggregation and the result Execute returns need its rows written
// and expand it first, as does a keyed join whose product is no larger than
// its other input (or the smaller of two products), where reading the
// factors would cost more than the rows.
type Result struct {
	N       int
	rels    []rel
	cols    map[string][]int64
	factors []*Result
	// ent is set when the memo holds this output: a join building on it
	// takes the entry's index.
	ent *entry
}

// Column returns a copy of a result column by its "alias.column" key.
func (r *Result) Column(key string) ([]int64, error) {
	if c, ok := r.cols[key]; ok {
		return slices.Clone(c), nil
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

// Engine executes physical plans against a storage.DB it takes to be
// immutable. Execute and ExecuteBudget are safe for concurrent use: per-call
// state lives in the Work accounting, and what executions share — the memo
// (operator outputs and the key indexes built over them, read under a shared
// lock and bounded by memoCapBytes) and the B-tree indexes (built once each
// under mu) — is never written after it is built.
type Engine struct {
	db *storage.DB
	// Budget bounds Work.Total() during one Execute call; 0 means unlimited.
	// It is the engine-wide default — set it before serving begins;
	// ExecuteBudget carries a per-call bound instead.
	Budget int64

	memo *memo

	mu    sync.Mutex
	btree map[string]*btreeIndex
}

// New returns an executor over the database.
func New(db *storage.DB) *Engine { return newWithCap(db, memoCapBytes) }

// newWithCap is New with the memo's byte cap given (tests use a small one, to
// evict mid-run).
func newWithCap(db *storage.DB, memoCap int64) *Engine {
	return &Engine{db: db, memo: newMemo(memoCap), btree: make(map[string]*btreeIndex)}
}

// Stats snapshots the memo's counters.
func (e *Engine) Stats() MemoStats { return e.memo.stats() }

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
	// The served plans' keys fit these; a larger plan's move to the heap.
	var buf [1024]byte
	var nodes [16]keySpan
	k := appendPlan(planKeys{buf[:0], nodes[:0]}, root)
	res, err := e.exec(root, 0, &k, w)
	if err != nil {
		return nil, w, err
	}
	return res.expand(), w, nil
}

// check returns ErrBudget once the work done plus the work already owed
// exceeds the budget. pending is the number of matched join pairs not yet
// emitted: execJoin charges each of them one RowsMaterialized and one
// TuplesEmitted, so counting them here refuses a fan-out join while it is
// still only a count, before any of its output is allocated. A run that
// finishes is charged exactly what it was without the look-ahead.
func (e *Engine) check(w *Work, pending int) error {
	if limit := e.limit(w); limit > 0 && w.Total()+2*int64(pending) > limit {
		return ErrBudget
	}
	return nil
}

// room is what the budget in force leaves above w's total: the most a loop
// may still charge, pending pairs included, before check would refuse. With
// no budget it is never reached.
func (e *Engine) room(w *Work) int64 {
	if limit := e.limit(w); limit > 0 {
		return limit - w.Total()
	}
	return math.MaxInt64
}

// limit is the budget in force for this call; 0 means none.
func (e *Engine) limit(w *Work) int64 {
	if w.budget > 0 {
		return w.budget
	}
	return e.Budget
}

// fits is the hit rule: an operator is answered from the memo iff what its
// subtree is charged still fits the budget in force. Counters only grow, and
// every check beneath it — a join's look-ahead of two units per pending pair
// included, since each pair is then charged those two — compares at most the
// subtree's final total with the budget: a total that fits passed them all.
// (An aggregation's last charge is checked by nobody, so a run may finish
// over budget; the rule then only sends it round again.)
func (e *Engine) fits(w, delta *Work) bool {
	limit := e.limit(w)
	return limit == 0 || w.Total()+delta.Total() <= limit
}

// exec runs node i of the plan k serialises, asking the memo first: an
// operator it holds — one that ran twice on this engine — and that would
// finish is charged what its subtree was charged cold and returns the shared
// output, and nothing beneath it runs. One the budget would refuse part-way
// runs cold, its inputs asking in their turn, so that the refusal point and
// the partial counters are the cold ones — Work stays a function of
// (database, plan, budget).
func (e *Engine) exec(n plan.Node, i int, k *planKeys, w *Work) (*Result, error) {
	scan, _ := n.(*plan.Scan)
	kind := planNode
	if scan != nil {
		kind = scanNode
	}
	key := k.key(i)
	if ent := e.memo.get(key); ent != nil && e.fits(w, &ent.delta) {
		e.memo.hits[kind].Add(1)
		w.add(&ent.delta)
		return ent.result(scan), nil
	}
	e.memo.misses[kind].Add(1)
	before := *w

	var res *Result
	var err error
	switch n := n.(type) {
	case *plan.Scan:
		res, err = e.execScan(n, w)
	case *plan.Join:
		res, err = e.execJoin(n, i, k, w)
	case *plan.Agg:
		res, err = e.execAgg(n, i, k, w)
	default:
		err = fmt.Errorf("engine: unknown plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	held, store := e.memo.admit(key)
	if store {
		held = e.memo.put(key, newEntry(scan, res, w.since(&before)))
	}
	if held == nil {
		return res, nil
	}
	return held.result(scan), nil
}

// newEntry is the entry for an output that has just been computed, res, and
// is nobody else's yet.
func newEntry(scan *plan.Scan, res *Result, delta Work) *entry {
	if scan == nil {
		ent := &entry{out: *res, delta: delta, bytes: res.bytes()}
		ent.out.ent = ent
		return ent
	}
	// Unfiltered, the rows are a vector something else owns (the identity
	// scan's, a B-tree's). Filtered, they are this scan's own, sized for the
	// candidates: the memo keeps the vector when the survivors fill half of
	// it, and otherwise a copy sized for them.
	r := res.rels[0]
	var bytes int64
	if len(scan.Filters) > 0 {
		if 2*len(r.ids) < cap(r.ids) {
			r.ids = append(make([]int32, 0, len(r.ids)), r.ids...)
		}
		bytes = 4 * int64(cap(r.ids))
	}
	return newScanEntry(r.table, r.ids, delta, bytes)
}

// newScanEntry is the entry of a scan of t that returns rows.
func newScanEntry(t *storage.Table, rows []int32, delta Work, bytes int64) *entry {
	ent := &entry{scanned: [1]rel{{"", t, rows}}, delta: delta, bytes: bytes}
	ent.out = Result{N: len(rows), rels: ent.scanned[:]}
	return ent
}

// result is the entry's output as the asking node's: a scan's rows under the
// scan's alias, anything else as it is.
func (ent *entry) result(scan *plan.Scan) *Result {
	if scan == nil {
		return &ent.out
	}
	r := ent.scanned[0]
	return &Result{N: ent.out.N, rels: []rel{{scan.Alias, r.table, r.ids}}, ent: ent}
}

// rows are a scan entry's row ids.
func (ent *entry) rows() []int32 { return ent.scanned[0].ids }

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

// identity returns the table's unfiltered sequential scan — rows 0…N-1, each
// read, materialized and emitted once — which is also what every other scan
// of the table starts from: a filtered sequential scan reads its rows, and a
// hash index is this entry's key index (positions in 0…N-1 are row ids).
func (e *Engine) identity(t *storage.Table) *entry {
	var buf [64]byte
	key := appendScanKey(buf[:0], t.Name, plan.SeqScan, "", nil)
	if ent := e.memo.get(key); ent != nil {
		return ent
	}
	ids := make([]int32, t.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	n := int64(t.N)
	return e.memo.put(key, newScanEntry(t, ids, Work{TuplesRead: n, RowsMaterialized: n, TuplesEmitted: n}, 4*n))
}

// execScan runs a scan the memo did not answer.
func (e *Engine) execScan(s *plan.Scan, w *Work) (*Result, error) {
	t, err := e.db.Table(s.Table)
	if err != nil {
		return nil, err
	}

	// rows are the candidates in scan order; they may alias an index or the
	// identity scan, so filtering below writes to a slice of its own.
	var rows []int32
	switch s.Access {
	case plan.SeqScan:
		w.TuplesRead += int64(t.N)
		rows = e.identity(t).rows()
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
			rows = e.identity(t).rows()
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
	if err := e.check(w, 0); err != nil {
		return nil, err
	}
	return &Result{N: len(rows), rels: []rel{{s.Alias, t, rows}}}, nil
}

func (e *Engine) execAgg(a *plan.Agg, i int, k *planKeys, w *Work) (*Result, error) {
	child, err := e.exec(a.Child, k.left(i), k, w)
	if err != nil {
		return nil, err
	}
	return aggregate(a, child.expand(), w, e)
}
