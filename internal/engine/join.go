package engine

import (
	"fmt"
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
// input rows the admission recorded.
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
		// Cross product: every left row owes right.N comparisons and pairs,
		// three units a pair against the headroom.
		room, rn := e.room(w), int64(right.N)
		for a := int64(1); a <= int64(left.N); a++ {
			if 3*a*rn > room {
				w.Comparisons += a * rn
				return nil, ErrBudget
			}
		}
		w.Comparisons += int64(n)
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

	// One allocation for the output's vectors: an output the memo keeps is
	// then a few objects for the collector to mark, however many relations.
	nrels := len(left.rels) + len(right.rels)
	out := &Result{N: n, rels: make([]rel, 0, nrels)}
	ids := make([]int32, n*nrels)
	for _, in := range [2][]rel{left.rels, right.rels} {
		for _, rl := range in {
			k := len(out.rels)
			out.rels = append(out.rels, rel{rl.alias, rl.table, ids[k*n : (k+1)*n : (k+1)*n]})
		}
	}
	if js != nil {
		js.emit(out.rels, left.rels, right.rels)
	} else {
		crossProduct(out.rels, left, right)
	}
	w.RowsMaterialized += int64(n)
	w.TuplesEmitted += int64(n)
	return out, nil
}

// crossProduct writes left × right into out's id vectors, the left input's
// relations first. Left row a is output rows a·right.N up to (a+1)·right.N,
// so a left relation's ids go out as runs, each id repeated right.N times,
// and a right relation's vector goes out left.N times over — copied once,
// then doubled, so that a right input of a few rows costs a few copies.
func crossProduct(out []rel, left, right *Result) {
	rn := right.N
	for k, rl := range left.rels {
		dst := out[k].ids
		for a, id := range rl.ids[:left.N] {
			run := dst[a*rn : (a+1)*rn]
			for x := range run {
				run[x] = id
			}
		}
	}
	for k, rl := range right.rels {
		dst := out[len(left.rels)+k].ids
		for f := copy(dst, rl.ids[:rn]); f < len(dst); f *= 2 {
			copy(dst[f:], dst[:f])
		}
	}
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
// a left row's first-key candidates its own way and charges for that;
// matchRest then compares the remaining keys, and the algorithm records a
// probe for a row that matched and runs the budget check on the count, so a
// refused join has stored no pair and an admitted one is written once, at
// its exact size, from the recorded probes. The algorithms keep their
// counters, probes and scratch in locals — a store through j per row would
// pay a write barrier whenever the collector runs — and store them when they
// refuse or finish: every check sees what charging row by row would have
// left in the Work, and so does a refused join's partial Work.
type joinState struct {
	e       *Engine
	w       *Work
	lk, rk  []colView
	right   *entry  // the right input's memo entry, when the memo holds it
	ralias  string  // the relation and
	rcol    string  // the column rk[0] reads
	cands   []int32 // right row positions the probes index into
	probes  []probe
	matched []int32 // matchRest's scratch, from admission to emission
	pending int     // matched pairs
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
// the left input's relations, then the right's. The probes give each match's
// left and right row positions, which go straight into the first vector of
// each side; the side's other vectors are gathered through them, and the
// first is turned from positions into ids last, in place.
func (j *joinState) emit(out, left, right []rel) {
	lpos, rpos := out[0].ids, out[len(left)].ids
	i, buf := 0, j.matched
	for _, p := range j.probes {
		run := j.cands[p.lo:p.hi]
		if len(j.lk) > 1 {
			buf, _ = j.matchRest(p.a, run, buf[:0])
			run = buf
		}
		for x, b := range run {
			lpos[i+x], rpos[i+x] = p.a, b
		}
		i += len(run)
	}
	gatherThrough(out[:len(left)], left)
	gatherThrough(out[len(left):], right)
}

// gatherThrough turns the row positions in out[0]'s vector into every src
// relation's ids, out[k].ids[x] = src[k].ids[pos[x]], writing out[0] last so
// the positions are read before they are overwritten.
func gatherThrough(out, src []rel) {
	pos := out[0].ids
	for k := len(src) - 1; k >= 0; k-- {
		dst, ids := out[k].ids, src[k].ids
		for x, r := range pos {
			dst[x] = ids[r]
		}
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
func (j *joinState) nestLoopJoin() error {
	ix := j.rightIndex()
	j.cands = ix.rows
	return j.probeAll(ix, 0, int64(len(ix.rows)))
}

// hashJoin builds on the right input's first key and probes with the left's.
func (j *joinState) hashJoin() error {
	ix := j.rightIndex()
	j.cands = ix.rows
	j.w.HashOps += int64(len(ix.rows))
	if err := j.e.check(j.w, 0); err != nil {
		return err
	}
	return j.probeAll(ix, 1, 0)
}

// mergeJoin sorts both inputs on the first key and walks them in step.
func (j *joinState) mergeJoin() error {
	lk, rk, w := j.lk[0], j.rk[0], j.w
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
