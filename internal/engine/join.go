package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// execJoin runs an inner equality join (a cross product when the plan gives
// it no predicate) in two steps. Admission counts the join's output pairs,
// charging the algorithm's work and running the budget check as each left
// row's pairs are added — the same charges and checks, after the same rows,
// as a join that stored each pair when it found it. Only an admitted join is
// then stored, at its exact size, its id vectors written straight from the
// input rows the admission recorded. An admitted cross product is not
// written at all: it is kept as its factors (see Result), and a keyed join
// over it counts and lists its rows factor by factor (see product.go).
func (e *Engine) execJoin(j *plan.Join, i int, k *planKeys, w *Work) (*Result, error) {
	left, err := e.exec(j.Left, k.left(i), k, w)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(j.Right, k.right(i), k, w)
	if err != nil {
		return nil, err
	}

	if len(j.Preds) == 0 {
		// Cross product: every left row owes right.N comparisons and pairs,
		// three units a pair against the headroom.
		n := left.N * right.N
		room, rn := e.room(w), int64(right.N)
		for a := int64(1); a <= int64(left.N); a++ {
			if 3*a*rn > room {
				w.Comparisons += a * rn
				return nil, ErrBudget
			}
		}
		w.Comparisons += int64(n)
		if err := e.check(w, n); err != nil {
			return nil, err
		}
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("engine: a cross product of %d rows is more than a join can address", n)
		}
		w.RowsMaterialized += int64(n)
		w.TuplesEmitted += int64(n)
		return &Result{N: n, factors: slices.Concat(left.parts(), right.parts())}, nil
	}

	// Read factor by factor, a product costs a pass over the other input's
	// rows: one no larger than the other input is written out instead, and
	// so is the smaller of two products.
	switch {
	case left.factors != nil && left.N <= right.N:
		left = left.expand()
	case right.factors != nil && right.N <= left.N:
		right = right.expand()
	}
	return e.keyedJoin(j, left, right, w)
}

// keyedJoin joins two computed inputs, at most one of them a cross product
// kept as its factors, on the join's predicates.
func (e *Engine) keyedJoin(j *plan.Join, left, right *Result, w *Work) (*Result, error) {
	if j.Algo == plan.MergeJoin {
		// The merge join's sort is not stable, so the order it leaves equal
		// keys in depends on the rows as written: it reads a product written.
		left, right = left.expand(), right.expand()
	}
	var err error
	js := &joinState{e: e, w: w, left: left.parts(), right: right.parts(), rightN: right.N}
	if js.lk, js.rk, err = joinKeys(js.left, js.right, j.Preds); err != nil {
		return nil, err
	}
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
	n := js.pending
	if err := e.check(w, n); err != nil {
		return nil, err
	}
	out := newOutput(n, js.left, js.right)
	js.emit(out.rels)
	w.RowsMaterialized += int64(n)
	w.TuplesEmitted += int64(n)
	return out, nil
}

// newOutput returns an n-row result over every relation of the parts, in
// order, its id vectors allocated but not written. One allocation holds them
// all: an output the memo keeps is then a few objects for the collector to
// mark, however many relations.
func newOutput(n int, sides ...[]*Result) *Result {
	nrels := 0
	for _, parts := range sides {
		for _, p := range parts {
			nrels += len(p.rels)
		}
	}
	out := &Result{N: n, rels: make([]rel, 0, nrels)}
	ids := make([]int32, n*nrels)
	for _, parts := range sides {
		for _, p := range parts {
			for _, rl := range p.rels {
				k := len(out.rels)
				out.rels = append(out.rels, rel{rl.alias, rl.table, ids[k*n : (k+1)*n : (k+1)*n]})
			}
		}
	}
	return out
}

// joinCol is one side's column of a join predicate: the relation and column
// the predicate names, read through the rows of the input's part that holds
// the relation — the input itself, or one factor of a cross product.
type joinCol struct {
	colView
	alias, name string
	part        int
}

// joinKeys resolves each side's join key columns, one pair per predicate;
// the right input's first is the column hash and nested-loop joins index.
// Predicate sides may be swapped relative to the plan's left/right inputs.
func joinKeys(left, right []*Result, preds []query.Join) (lk, rk []joinCol, err error) {
	for _, p := range preds {
		la, lc, ra, rc := p.LeftAlias, p.LeftCol, p.RightAlias, p.RightCol
		if _, ok := partOf(left, la); !ok {
			// Swapped: the predicate's "left" column lives in the right input.
			la, lc, ra, rc = ra, rc, la, lc
		}
		l, err := column(left, la, lc)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: join column not in left input: %w", err)
		}
		r, err := column(right, ra, rc)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: join column not in right input: %w", err)
		}
		lk, rk = append(lk, l), append(rk, r)
	}
	return lk, rk, nil
}

// partOf returns the part that holds the relation.
func partOf(parts []*Result, alias string) (int, bool) {
	for f, p := range parts {
		if p.has(alias) {
			return f, true
		}
	}
	return 0, false
}

// column returns alias.name read through the part that holds the relation.
func column(parts []*Result, alias, name string) (joinCol, error) {
	f, _ := partOf(parts, alias)
	v, err := parts[f].view(alias, name)
	return joinCol{v, alias, name, f}, err
}

// probe is one left row and the run of right rows, cands[lo:hi], that agree
// with it on the first join key.
type probe struct{ a, lo, hi int32 }

// joinState admits a keyed join one left row at a time. Each algorithm finds
// a left row's first-key candidates its own way and charges for that;
// matchRest then compares the remaining keys, and the algorithm records a
// probe for a row that matched and runs the budget check on the count, so a
// refused join has stored no pair and an admitted one is written once, at
// its exact size, from the recorded probes. The algorithms keep their
// counters, probes and scratch in locals — a store through j per row would
// pay a write barrier whenever the collector runs — and store them when they
// refuse or finish: every check sees what charging row by row would have
// left in the Work, and so does a refused join's partial Work. When one input
// is a cross product, the hash and nested-loop joins reach the same charges
// and checks from its factors instead (see product.go).
type joinState struct {
	e           *Engine
	w           *Work
	left, right []*Result // the inputs' parts: an input, or a cross product's factors
	rightN      int       // right input rows
	lk, rk      []joinCol
	// cands are the right row positions the probes index into: for a
	// product probe side, the build rows that match some product row.
	cands   []int32
	probes  []probe
	matched []int32 // matchRest's scratch, from admission to emission
	pending int     // matched pairs
	// product is the cross-product input's factors and their key indexes,
	// when one input is a product.
	product *factorKeys
}

// rightIndex groups the right input's rows by key k. That is a function of
// the right input — a scan or a join — and nothing else, so when the memo
// holds the input, its entry builds the index once for every join that asks;
// over an input seen for the first time it is built here. What the index
// costs to use is charged by the caller either way.
func (j *joinState) rightIndex(k int) *keyIndex { return j.e.keyIndexOn(j.right[0], j.rk[k]) }

// keyIndexOn returns the index of part's rows by column c: the memo entry's,
// when the memo holds part, or one built for this join.
func (e *Engine) keyIndexOn(part *Result, c joinCol) *keyIndex {
	if part.ent != nil {
		return e.memo.index(part.ent, c.alias, c.name, c.colView)
	}
	return buildKeyIndex(c.colView)
}

// matchRest appends to dst the candidates that match left row a on every key
// after the first, and returns them with the comparisons that costs. It
// filters a key at a time — the second over every candidate, each later one
// over the survivors of those before it, in place — which charges each
// candidate one comparison per key up to the first that differs, as
// comparing it key by key would. Most candidates differ on the second key,
// so the later keys' left values are read only when some candidate gets
// that far.
func (j *joinState) matchRest(a int32, cands, dst []int32) ([]int32, int64) {
	n := len(dst)
	col, ids, v := j.rk[1].col, j.rk[1].ids, j.lk[1].at(a)
	for _, b := range cands {
		if col[ids[b]] == v {
			dst = append(dst, b)
		}
	}
	comps := int64(len(cands))
	for k := 2; k < len(j.lk) && len(dst) > n; k++ {
		comps += int64(len(dst) - n)
		col, ids, v := j.rk[k].col, j.rk[k].ids, j.lk[k].at(a)
		kept := dst[:n]
		for _, b := range dst[n:] {
			if col[ids[b]] == v {
				kept = append(kept, b)
			}
		}
		dst = kept
	}
	return dst, comps
}

// appendProbe appends p, doubling the capacity when it runs out rather than
// growing it in append's quarter steps past 256: a fan-out join records a
// probe for most left rows.
func appendProbe(probes []probe, p probe) []probe {
	if len(probes) == cap(probes) {
		probes = slices.Grow(probes, len(probes)+64)
	}
	return append(probes, p)
}

// emit writes the admitted matches, in probe order, into out's id vectors:
// the left input's relations, then the right's. Each match's row in each
// input part goes straight into the vector of the part's first relation;
// the part's other vectors are gathered through it, and the first is turned
// from rows into ids last, in place.
func (j *joinState) emit(out []rel) {
	lpos, rest := firstVectors(out, j.left)
	rpos, _ := firstVectors(rest, j.right)
	switch {
	case len(j.left) > 1:
		j.emitFromProduct(lpos, rpos[0])
	case len(j.right) > 1:
		j.emitIntoProduct(lpos[0], rpos)
	default:
		l, r := lpos[0], rpos[0]
		i, buf := 0, j.matched
		for _, p := range j.probes {
			run := j.cands[p.lo:p.hi]
			if len(j.lk) > 1 {
				buf, _ = j.matchRest(p.a, run, buf[:0])
				run = buf
			}
			for x, b := range run {
				l[i+x], r[i+x] = p.a, b
			}
			i += len(run)
		}
	}
	gatherThrough(out, slices.Concat(j.left, j.right))
}

// firstVectors returns the vector of each part's first relation among out,
// which holds the parts' relations in order, and what of out follows them.
func firstVectors(out []rel, parts []*Result) ([][]int32, []rel) {
	first := make([][]int32, len(parts))
	for f, p := range parts {
		first[f] = out[0].ids
		out = out[len(p.rels):]
	}
	return first, out
}

// gatherThrough turns the rows each part's first vector holds into the ids
// of every relation of the part, out[k].ids[x] = the relation's id at row
// pos[x], writing the first vector last so the rows are read before they are
// overwritten.
func gatherThrough(out []rel, parts []*Result) {
	for _, p := range parts {
		pos := out[0].ids
		for r := len(p.rels) - 1; r >= 0; r-- {
			dst, ids := out[r].ids, p.rels[r].ids
			for x, i := range pos {
				dst[x] = ids[i]
			}
		}
		out = out[len(p.rels):]
	}
}

// probeAll admits every left row against the right rows ix groups by the
// first key. Each row is charged hashOps and comps before it looks — one
// hash probe, or one comparison with every right row — and a left key equal
// to the previous row's, as a cross product's runs repeat it, reuses that
// row's find. The loop carries what it owes beyond the per-row charges —
// the keys after the first, two units per pending pair — in one sum, and
// compares it with the budget's headroom.
func (j *joinState) probeAll(ix *keyIndex, hashOps, comps int64) error {
	w := j.w
	room, perRow := j.e.room(w), hashOps+comps
	var owed int64
	pending, probes, buf := 0, j.probes, j.matched
	multi, direct, lcol, lids := len(j.lk) > 1, ix.keys == nil, j.lk[0].col, j.lk[0].ids
	var prev int64
	var lo, hi int32
	for a := range int32(len(lids)) {
		if v := lcol[lids[a]]; a == 0 || v != prev {
			if direct {
				lo, hi = ix.findDirect(v)
			} else {
				lo, hi = ix.find(v)
			}
			prev = v
		}
		m := int(hi - lo)
		if multi && m > 0 {
			var rc int64
			buf, rc = j.matchRest(a, ix.rows[lo:hi], buf[:0])
			m, owed = len(buf), owed+rc
		}
		if m > 0 {
			probes = appendProbe(probes, probe{a, lo, hi})
			pending += m
			owed += 2 * int64(m)
		}
		// Every probe row, not every few thousand: one skewed key can add
		// right.N pairs per row.
		if int64(a+1)*perRow+owed > room {
			w.HashOps += int64(a+1) * hashOps
			w.Comparisons += int64(a+1)*comps + owed - 2*int64(pending)
			return ErrBudget
		}
	}
	w.HashOps += int64(len(lids)) * hashOps
	w.Comparisons += int64(len(lids))*comps + owed - 2*int64(pending)
	j.pending, j.probes, j.matched = pending, probes, buf
	return nil
}

// nestLoopJoin is charged for comparing every left row's first key with
// every right row's; which right rows those comparisons find comes from a
// key index, so the charge does not have to be worked off.
func (j *joinState) nestLoopJoin() error { return j.probe(0, int64(j.rightN)) }

// hashJoin builds on the right input's first key and probes with the left's.
func (j *joinState) hashJoin() error {
	j.w.HashOps += int64(j.rightN)
	if err := j.e.check(j.w, 0); err != nil {
		return err
	}
	return j.probe(1, 0)
}

// probe admits every left row, each charged hashOps and comps before it
// looks, against the right input's rows.
func (j *joinState) probe(hashOps, comps int64) error {
	switch {
	case len(j.left) > 1:
		return j.probeProduct(hashOps, comps)
	case len(j.right) > 1:
		return j.probeIntoProduct(hashOps, comps)
	}
	ix := j.rightIndex(0)
	j.cands = ix.rows
	return j.probeAll(ix, hashOps, comps)
}

// mergeJoin sorts both inputs on the first key and walks them in step.
func (j *joinState) mergeJoin() error {
	lk, rk, w := j.lk[0].colView, j.rk[0].colView, j.w
	lo := sortedOrder(lk, w)
	ro := sortedOrder(rk, w)
	j.cands = ro
	room := j.e.room(w)
	var c int64
	pending, probes, buf := 0, j.probes, j.matched
	l, r := 0, 0
	for l < len(lo) && r < len(ro) {
		c++
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
				m := rEnd - r
				if len(j.lk) > 1 {
					var rc int64
					buf, rc = j.matchRest(lo[l], ro[r:rEnd], buf[:0])
					m, c = len(buf), c+rc
				}
				if m > 0 {
					probes = appendProbe(probes, probe{lo[l], int32(r), int32(rEnd)})
					pending += m
				}
				if c+2*int64(pending) > room {
					w.Comparisons += c
					return ErrBudget
				}
			}
			r = rEnd
		}
	}
	w.Comparisons += c
	j.pending, j.probes, j.matched = pending, probes, buf
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
	if ix.keys == nil {
		return ix.findDirect(v)
	}
	s, _ := ix.slot(v)
	return ix.end[s] - ix.count[s], ix.end[s]
}

// findDirect is find on a direct table, small enough to inline: a probe loop
// over dense keys then calls nothing per row.
func (ix *keyIndex) findDirect(v int64) (lo, hi int32) {
	s := uint64(v) - uint64(ix.base)
	if s >= uint64(len(ix.end)) {
		return 0, 0
	}
	hi = ix.end[s]
	return hi - ix.count[s], hi
}
