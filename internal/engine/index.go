package engine

import (
	"sort"

	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// btreeIndex is a sorted (value, row) list supporting range and equality
// lookups — the executor's stand-in for a B-tree.
type btreeIndex struct {
	vals []int64
	rows []int32
}

func buildBTree(col []int64) *btreeIndex {
	ix := &btreeIndex{vals: make([]int64, len(col)), rows: make([]int32, len(col))}
	order := make([]int32, len(col))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return col[order[a]] < col[order[b]] })
	for i, r := range order {
		ix.vals[i] = col[r]
		ix.rows[i] = r
	}
	return ix
}

// rangeRows returns the rows with value in [lo, hi] (inclusive), in index
// order. The slice is the index's own: callers must not write to it.
func (ix *btreeIndex) rangeRows(lo, hi int64, w *Work) []int32 {
	from := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= lo })
	to := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] > hi })
	w.IndexProbes += 2
	w.TuplesRead += int64(to - from)
	return ix.rows[from:to]
}

// lookupFilters returns candidate rows for the filters on the indexed
// column. With no usable filter it degenerates to all rows (a full index
// scan), which is charged accordingly. The slice is the index's own.
func (ix *btreeIndex) lookupFilters(filters []query.Filter, column string, w *Work) []int32 {
	lo, hi := int64(minInt64), int64(maxInt64)
	usable := false
	for _, f := range filters {
		if f.Column != column {
			continue
		}
		switch f.Op {
		case query.Eq:
			if f.Value > lo {
				lo = f.Value
			}
			if f.Value < hi {
				hi = f.Value
			}
			usable = true
		case query.Lt:
			if f.Value-1 < hi {
				hi = f.Value - 1
			}
			usable = true
		case query.Le:
			if f.Value < hi {
				hi = f.Value
			}
			usable = true
		case query.Gt:
			if f.Value+1 > lo {
				lo = f.Value + 1
			}
			usable = true
		case query.Ge:
			if f.Value > lo {
				lo = f.Value
			}
			usable = true
		}
	}
	if !usable {
		// Full index scan: every row in index order.
		w.TuplesRead += int64(len(ix.rows))
		w.IndexProbes++
		return ix.rows
	}
	if lo > hi {
		return nil
	}
	return ix.rangeRows(lo, hi, w)
}

// hashLookup serves an equality filter on the indexed column from a hash
// index (a keyIndex over the whole column, so its positions are row ids). It
// returns the index's own slice, ascending; ok is false when the filters hold
// no such equality, which a hash index cannot serve.
func hashLookup(ix *keyIndex, filters []query.Filter, column string, w *Work) (rows []int32, ok bool) {
	for _, f := range filters {
		if f.Column == column && f.Op == query.Eq {
			w.IndexProbes++
			lo, hi := ix.find(f.Value)
			w.TuplesRead += int64(hi - lo)
			return ix.rows[lo:hi], true
		}
	}
	return nil, false
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// btreeIndexFor returns (building and caching on first use) the B-tree index
// for a table column. The cache is mutex-guarded so concurrent executions
// share one build; holding the lock across the build means a cold index is
// built exactly once.
func (e *Engine) btreeIndexFor(t *storage.Table, column string) (*btreeIndex, error) {
	key := t.Name + "." + column
	e.mu.Lock()
	defer e.mu.Unlock()
	if ix, ok := e.btree[key]; ok {
		return ix, nil
	}
	col, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	ix := buildBTree(col)
	e.btree[key] = ix
	return ix, nil
}

// hashIndexFor returns the hash index for a table column: the key index of
// the table's identity scan over that column, built the first time any scan
// or join asks for it.
func (e *Engine) hashIndexFor(t *storage.Table, column string) (*keyIndex, error) {
	col, err := t.Column(column)
	if err != nil {
		return nil, err
	}
	all := e.identity(t)
	return e.memo.index(all, "", column, colView{col, all.rows()}), nil
}
