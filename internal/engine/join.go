package engine

import (
	"fmt"
	"sort"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// execJoin runs an inner equality join (a cross product when the plan gives
// it no predicate) in two steps. Admission counts the join's output pairs,
// charging the algorithm's work and running the budget check as each left
// row's pairs are added — the same charges and checks, after the same rows,
// as a join that stored each pair when it found it. Only an admitted join is
// then stored, at its exact size.
func (e *Engine) execJoin(j *plan.Join, i int, k *planKeys, w *Work) (*Result, error) {
	left, err := e.exec(j.Left, k.left(i), k, w)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(j.Right, k.right(i), k, w)
	if err != nil {
		return nil, err
	}

	var js *joinState
	n := left.N * right.N
	if len(j.Preds) == 0 {
		// Cross product: every left row owes right.N comparisons and pairs.
		for a := 1; a <= left.N; a++ {
			w.Comparisons += int64(right.N)
			if err := e.check(w, a*right.N); err != nil {
				return nil, err
			}
		}
	} else {
		lk, rk, ralias, rcol, err := joinKeys(left, right, j.Preds)
		if err != nil {
			return nil, err
		}
		js = &joinState{e: e, w: w, lk: lk, rk: rk, right: right.ent, ralias: ralias, rcol: rcol}
		switch j.Algo {
		case plan.HashJoin:
			err = js.hashJoin()
		case plan.MergeJoin:
			err = js.mergeJoin()
		default:
			err = js.nestLoopJoin()
		}
		if err != nil {
			return nil, err
		}
		n = js.pending
	}
	if err := e.check(w, n); err != nil {
		return nil, err
	}

	li, ri := make([]int32, n), make([]int32, n)
	if js != nil {
		js.pairs(li, ri)
	} else {
		i := 0
		for a := 0; a < left.N; a++ {
			for b := 0; b < right.N; b++ {
				li[i], ri[i] = int32(a), int32(b)
				i++
			}
		}
	}
	// One allocation for the output's vectors: an output the memo keeps is
	// then a few objects for the collector to mark, however many relations.
	nrels := len(left.rels) + len(right.rels)
	out := &Result{N: n, rels: make([]rel, 0, nrels)}
	ids := make([]int32, n*nrels)
	out.rels = appendThrough(out.rels, left.rels, li, ids)
	out.rels = appendThrough(out.rels, right.rels, ri, ids[n*len(left.rels):])
	w.RowsMaterialized += int64(n)
	w.TuplesEmitted += int64(n)
	return out, nil
}

// appendThrough appends src's relations with their id vectors read through
// rows: a join's output is one id vector per relation, never a column. The
// vectors are cut from ids, in order.
func appendThrough(dst, src []rel, rows, ids []int32) []rel {
	n := len(rows)
	for k, rl := range src {
		out := ids[k*n : (k+1)*n : (k+1)*n]
		for i, r := range rows {
			out[i] = rl.ids[r]
		}
		dst = append(dst, rel{rl.alias, rl.table, out})
	}
	return dst
}

// joinKeys resolves each side's join key columns, one pair per predicate, and
// names the right input's first: the column hash and nested-loop joins index.
// Predicate sides may be swapped relative to the plan's left/right inputs.
func joinKeys(left, right *Result, preds []query.Join) (lk, rk []colView, ralias, rcol string, err error) {
	for i, p := range preds {
		la, lc, ra, rc := p.LeftAlias, p.LeftCol, p.RightAlias, p.RightCol
		if !left.has(la) {
			// Swapped: the predicate's "left" column lives in the right input.
			la, lc, ra, rc = ra, rc, la, lc
		}
		l, err := left.view(la, lc)
		if err != nil {
			return nil, nil, "", "", fmt.Errorf("engine: join column not in left input: %w", err)
		}
		r, err := right.view(ra, rc)
		if err != nil {
			return nil, nil, "", "", fmt.Errorf("engine: join column not in right input: %w", err)
		}
		lk, rk = append(lk, l), append(rk, r)
		if i == 0 {
			ralias, rcol = ra, rc
		}
	}
	return lk, rk, ralias, rcol, nil
}

// probe is one left row and the run of right rows, cands[lo:hi], that agree
// with it on the first join key.
type probe struct{ a, lo, hi int32 }

// joinState admits a keyed join one left row at a time. Each algorithm finds
// a left row's first-key candidates its own way and charges for that; row
// then charges the remaining keys, counts the row's matches and runs the
// budget check on the count, so a refused join has stored no pair and an
// admitted one allocates its pairs once, at their exact size.
type joinState struct {
	e       *Engine
	w       *Work
	lk, rk  []colView
	right   *entry  // the right input's memo entry, when the memo holds it
	ralias  string  // the relation and
	rcol    string  // the column rk[0] reads
	cands   []int32 // right row positions the probes index into
	probes  []probe
	pending int // matched pairs so far
}

// rightIndex groups the right input's rows by its first key. That is a
// function of the right input — a scan or a join — and nothing else, so when
// the memo holds the input, its entry builds the index once for every join
// that asks; over an input seen for the first time it is built here. What the
// index costs to use is charged by the caller either way.
func (j *joinState) rightIndex() *keyIndex {
	if j.right != nil {
		return j.e.memo.index(j.right, j.ralias, j.rcol, j.rk[0])
	}
	return buildKeyIndex(j.rk[0])
}

// matchRest compares the keys after the first.
func (j *joinState) matchRest(a, b int32, charge bool) bool {
	for k := 1; k < len(j.lk); k++ {
		if charge {
			j.w.Comparisons++
		}
		if j.lk[k].at(a) != j.rk[k].at(b) {
			return false
		}
	}
	return true
}

// row admits left row a, whose first key matches right rows cands[lo:hi].
func (j *joinState) row(a, lo, hi int32) error {
	n := int(hi - lo)
	if len(j.lk) > 1 {
		n = 0
		for _, b := range j.cands[lo:hi] {
			if j.matchRest(a, b, true) {
				n++
			}
		}
	}
	if n > 0 {
		j.probes = append(j.probes, probe{a, lo, hi})
		j.pending += n
	}
	return j.e.check(j.w, j.pending)
}

// pairs writes the admitted matches, in probe order, to li and ri.
func (j *joinState) pairs(li, ri []int32) {
	i := 0
	for _, p := range j.probes {
		for _, b := range j.cands[p.lo:p.hi] {
			if j.matchRest(p.a, b, false) {
				li[i], ri[i] = p.a, b
				i++
			}
		}
	}
}

// nestLoopJoin is charged for comparing every left row's first key with
// every right row's; which right rows those comparisons find comes from a
// key index, so the charge does not have to be worked off.
func (j *joinState) nestLoopJoin() error {
	ix := j.rightIndex()
	j.cands = ix.rows
	for a, n := int32(0), int32(j.lk[0].len()); a < n; a++ {
		j.w.Comparisons += int64(len(ix.rows))
		lo, hi := ix.find(j.lk[0].at(a))
		if err := j.row(a, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// hashJoin builds on the right input's first key and probes with the left's.
func (j *joinState) hashJoin() error {
	ix := j.rightIndex()
	j.cands = ix.rows
	j.w.HashOps += int64(len(ix.rows))
	if err := j.e.check(j.w, 0); err != nil {
		return err
	}
	for a, n := int32(0), int32(j.lk[0].len()); a < n; a++ {
		j.w.HashOps++
		lo, hi := ix.find(j.lk[0].at(a))
		// Every probe row, not every few thousand: one skewed key can add
		// right.N pairs per row.
		if err := j.row(a, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// mergeJoin sorts both inputs on the first key and walks them in step.
func (j *joinState) mergeJoin() error {
	lk, rk, w := j.lk[0], j.rk[0], j.w
	lo := sortedOrder(lk, w)
	ro := sortedOrder(rk, w)
	j.cands = ro
	l, r := 0, 0
	for l < len(lo) && r < len(ro) {
		w.Comparisons++
		a, b := lk.at(lo[l]), rk.at(ro[r])
		switch {
		case a < b:
			l++
		case a > b:
			r++
		default:
			// The full group × group block for this key.
			rEnd := r
			for rEnd < len(ro) && rk.at(ro[rEnd]) == a {
				rEnd++
			}
			for ; l < len(lo) && lk.at(lo[l]) == a; l++ {
				if err := j.row(lo[l], int32(r), int32(rEnd)); err != nil {
					return err
				}
			}
			r = rEnd
		}
	}
	return nil
}

// sortedOrder returns row positions ordered by key, charging n·log n
// comparisons to the work counter.
func sortedOrder(key colView, w *Work) []int32 {
	order := make([]int32, key.len())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return key.at(order[a]) < key.at(order[b]) })
	w.Comparisons += int64(len(order)) * log2Charge(len(order))
	return order
}

// log2Charge is the per-row factor a sort of n rows is charged.
func log2Charge(n int) int64 {
	logn := int64(1)
	for v := n; v > 1; v >>= 1 {
		logn++
	}
	return logn
}

// keyIndex groups the positions of a key column by value: a table whose
// slots point into one rows array laid out key by key (CSR), each key's
// positions ascending. Keys packed into a small range — row ids and the
// foreign keys that reference them — index the table directly; anything
// sparser is hashed into it with open addressing.
type keyIndex struct {
	base  int64   // direct table: key k has slot k-base
	keys  []int64 // hashed table: each slot's key; nil when direct
	count []int32 // positions holding the slot's key; 0 marks an empty slot
	end   []int32 // one past the slot's last entry in rows
	rows  []int32
}

func buildKeyIndex(key colView) *keyIndex {
	n := key.len()
	ix := &keyIndex{}
	size := 0
	if n > 0 {
		lo, hi := key.at(0), key.at(0)
		for b := 1; b < n; b++ {
			v := key.at(int32(b))
			lo, hi = min(lo, v), max(hi, v)
		}
		if span := uint64(hi) - uint64(lo); span < uint64(4*n+64) {
			ix.base, size = lo, int(span)+1
		}
	}
	if size == 0 {
		for size = 8; size < 2*n; size <<= 1 {
		}
		ix.keys = make([]int64, size)
	}
	// One allocation for the three tables: an index the memo keeps is then
	// two objects for the collector to mark, not four.
	tables := make([]int32, 2*size+n)
	ix.count, ix.end, ix.rows = tables[:size:size], tables[size:2*size:2*size], tables[2*size:]
	slots := make([]int32, n)
	for b := range slots {
		v := key.at(int32(b))
		s, _ := ix.slot(v)
		if ix.keys != nil {
			ix.keys[s] = v
		}
		ix.count[s]++
		slots[b] = int32(s)
	}
	var off int32
	for s, c := range ix.count {
		ix.end[s] = off // the slot's start, advanced to its end as rows fill
		off += c
	}
	for b, s := range slots {
		ix.rows[ix.end[s]] = int32(b)
		ix.end[s]++
	}
	return ix
}

// slot returns the slot holding v or the empty slot v would take; ok is false
// when a direct table has no slot for v.
func (ix *keyIndex) slot(v int64) (s uint64, ok bool) {
	if ix.keys == nil {
		s = uint64(v) - uint64(ix.base)
		return s, s < uint64(len(ix.count))
	}
	mask := uint64(len(ix.keys) - 1)
	h := uint64(v) * 0x9e3779b97f4a7c15
	for s = (h ^ h>>32) & mask; ix.count[s] != 0 && ix.keys[s] != v; s = (s + 1) & mask {
	}
	return s, true
}

// find returns the range of rows holding the positions whose key is v.
func (ix *keyIndex) find(v int64) (lo, hi int32) {
	s, ok := ix.slot(v)
	if !ok {
		return 0, 0
	}
	return ix.end[s] - ix.count[s], ix.end[s]
}
