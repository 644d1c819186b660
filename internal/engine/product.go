package engine

import "slices"

// A cross product is kept as its factors (Result.factors): row x of
// F₀ × F₁ × … is row x / stride_f mod N_f of each factor f, where stride_f is
// the product of the later factors' sizes, so the last factor varies fastest
// — the order crossProduct writes. A keyed hash or nested-loop join over a
// product admits it without writing it, on one identity read off probeAll
// and matchRest: a probe row is charged
//
//	perRow + Σ_{k<K−1} |S_k| + 2·|S_{K−1}|
//
// where S_k is the set of build rows that agree with it on keys 0…k. Build
// rows agree with a product row factor by factor, so how many agree is a
// product of per-factor key counts, read from an index over each factor's
// first key; a block of product rows is charged in one pass over the build
// rows that agree with what the block holds fixed. The join steps row by row
// only in the block where the budget refuses, and lists only the pairs it
// keeps.

// parts returns the factors of a cross product, or r itself as its only part.
func (r *Result) parts() []*Result {
	if r.factors != nil {
		return r.factors
	}
	return []*Result{r}
}

// expand returns a cross product with its rows written out, and any other
// result as it is.
func (r *Result) expand() *Result {
	if r.factors == nil {
		return r
	}
	out := newOutput(r.N, r.factors)
	crossProduct(out.rels, r.factors)
	return out
}

// crossProduct writes the product of the factors into out's id vectors, the
// first factor's relations first. A factor's ids go out as runs of stride
// copies each, filling one period of the factor's rows; the period is then
// doubled until it fills the vector, so that a small factor costs a few
// copies.
func crossProduct(out []rel, factors []*Result) {
	if len(out) == 0 || len(out[0].ids) == 0 {
		return
	}
	k, stride := 0, len(out[0].ids)
	for _, f := range factors {
		stride /= f.N
		period := f.N * stride
		for _, rl := range f.rels {
			dst := out[k].ids
			k++
			if stride == 1 {
				copy(dst, rl.ids[:f.N])
			} else {
				for a, id := range rl.ids[:f.N] {
					run := dst[a*stride : (a+1)*stride]
					for x := range run {
						run[x] = id
					}
				}
			}
			for n := period; n < len(dst); n *= 2 {
				copy(dst[n:], dst[:n])
			}
		}
	}
}

// factorKeys is the cross-product side of a keyed join: which factor holds
// each key column, and per factor an index over the first key it holds.
// match finds the rows of one factor that agree with the other side's values
// on the factor's keys.
type factorKeys struct {
	parts  []*Result
	cols   []joinCol   // the side's key columns, in predicate order
	keys   [][]int     // per factor: the predicates whose column it holds
	ix     []*keyIndex // per factor: over the column of its first predicate
	stride []int32     // per factor: product rows per row of the factor
	// upto[k][f] is how many of factor f's keys are among predicates 0…k.
	upto [][]int
	// match's results and scratch, per factor: cnt[f][t] rows agree on the
	// factor's first t keys, rows[f] on all of them.
	cnt  [][]int64
	rows [][]int32
	buf  [][]int32
	vals []int64 // the other side's values, per predicate, for match
}

func (e *Engine) newFactorKeys(parts []*Result, cols []joinCol) *factorKeys {
	m := len(parts)
	fk := &factorKeys{
		parts: parts, cols: cols, keys: make([][]int, m), ix: make([]*keyIndex, m), stride: make([]int32, m),
		upto: make([][]int, len(cols)), cnt: make([][]int64, m), rows: make([][]int32, m), buf: make([][]int32, m),
		vals: make([]int64, len(cols)),
	}
	for k, c := range cols {
		fk.keys[c.part] = append(fk.keys[c.part], k)
	}
	stride := int32(1)
	for f := m - 1; f >= 0; f-- {
		fk.stride[f] = stride
		stride *= int32(parts[f].N)
	}
	for f, ks := range fk.keys {
		fk.cnt[f] = make([]int64, len(ks)+1)
		fk.cnt[f][0] = int64(parts[f].N)
		if len(ks) > 0 {
			fk.ix[f] = e.keyIndexOn(parts[f], cols[ks[0]])
		}
	}
	for k := range cols {
		fk.upto[k] = make([]int, m)
		for kk := 0; kk <= k; kk++ {
			fk.upto[k][cols[kk].part]++
		}
	}
	return fk
}

// match finds the rows of factor f that agree with fk.vals on the factor's
// keys: how many agree on its first t keys go to cnt[f][t], and the rows
// that agree on all of them, ascending, to rows[f]. A factor that holds no
// key is left as it is: all of its rows agree.
func (fk *factorKeys) match(f int) {
	ks, cnt := fk.keys[f], fk.cnt[f]
	if len(ks) == 0 {
		return
	}
	ix := fk.ix[f]
	lo, hi := ix.find(fk.vals[ks[0]])
	rows := ix.rows[lo:hi]
	cnt[1] = int64(len(rows))
	for t := 1; t < len(ks); t++ {
		c, v := &fk.cols[ks[t]], fk.vals[ks[t]]
		kept := fk.buf[f][:0]
		for _, r := range rows {
			if c.at(r) == v {
				kept = append(kept, r)
			}
		}
		fk.buf[f], rows = kept, kept
		cnt[t+1] = int64(len(rows))
	}
	fk.rows[f] = rows
}

// agreeing is |S_k| over the factors from f on, for the values match last
// saw: the product of how many rows of each agree on its keys among 0…k.
func (fk *factorKeys) agreeing(k, from int) int64 {
	n := int64(1)
	for f := from; f < len(fk.parts); f++ {
		n *= fk.cnt[f][fk.upto[k][f]]
	}
	return n
}

// appendKeyed appends to dst, tagged with the other side's row in the low
// half, the product row — keyless factors at row 0 — of every combination of
// rows of the keyed factors from f on that agree with the values match last
// saw, ascending.
func (fk *factorKeys) appendKeyed(dst []uint64, f int, pos, tag int32) []uint64 {
	for f < len(fk.parts) && len(fk.keys[f]) == 0 {
		f++
	}
	if f == len(fk.parts) {
		return append(dst, uint64(pos)<<32|uint64(tag))
	}
	for _, d := range fk.rows[f] {
		dst = fk.appendKeyed(dst, f+1, pos+d*fk.stride[f], tag)
	}
	return dst
}

// blockSum is what a run of probe rows is charged: rows, the comparisons
// matchRest makes beyond the per-row charge, and the pairs they match.
type blockSum struct{ rows, comps, pend int64 }

func (s *blockSum) add(t blockSum) {
	s.rows += t.rows
	s.comps += t.comps
	s.pend += t.pend
}

// probeProduct admits a left input that is a cross product. Its rows are
// taken in blocks: the block at level l holds factors 0…l−1 at fixed rows
// and runs over every row of the others, so level 0 is the whole product and
// level m (the number of factors) a single row. A block's charge is summed
// over the build rows: each adds, per key k, the product rows of the block
// that agree with it on keys 0…k. Keys held by the block's fixed factors only
// let through build rows that agree with the fixed rows, found through an
// index on the first such key; the keys before it the block does not hold,
// and what they add is the same for every block of a level. Admission takes
// the whole product if it fits the budget's headroom, and otherwise walks the
// levels down through the first block that does not fit, to the row the
// probe loop would have refused at — and charges what that loop would have
// charged by then.
func (j *joinState) probeProduct(hashOps, comps int64) error {
	w, fk := j.w, j.e.newFactorKeys(j.left, j.lk)
	j.product = fk
	m := len(fk.parts)
	room, perRow := j.e.room(w), hashOps+comps
	var done blockSum
	fits := func(s blockSum) bool {
		return (done.rows+s.rows)*perRow+done.comps+s.comps+2*(done.pend+s.pend) <= room
	}
	digits := make([]int32, m)
	whole := j.levelSum(0, len(j.lk))
	whole.rows = int64(fk.parts[0].N) * int64(fk.stride[0])
	if !fits(whole) {
		for l := 1; l <= m; l++ {
			f, from := l-1, j.heldFrom(l)
			shared := j.levelSum(l, from)
			shared.rows = int64(fk.stride[f])
			var ix *keyIndex
			if from < len(j.lk) {
				ix = j.rightIndex(from)
			}
			for d := range int32(fk.parts[f].N) {
				digits[f] = d
				s := shared
				if ix != nil {
					j.heldSum(ix, l, from, digits, &s)
				}
				if fits(s) {
					done.add(s)
					continue
				}
				if l == m {
					// This row refuses, as the probe loop would have.
					w.HashOps += (done.rows + 1) * hashOps
					w.Comparisons += (done.rows+1)*comps + done.comps + s.comps
					return ErrBudget
				}
				break // into this block, a level down
			}
		}
	}
	w.HashOps += whole.rows * hashOps
	w.Comparisons += whole.rows*comps + whole.comps
	j.pending = int(whole.pend)
	return nil
}

// heldFrom is the first key a block at level l holds at a fixed row: the
// first whose column is in factors 0…l−1 (len(lk) when none is).
func (j *joinState) heldFrom(l int) int {
	for k, c := range j.lk {
		if c.part < l {
			return k
		}
	}
	return len(j.lk)
}

// levelSum is what every block at level l is charged for the keys before
// to, heldFrom(l), summed over all build rows: it does not depend on the
// rows the block holds fixed. At level 0 that is every key, and the build
// rows that match some product row are kept, in order, for emitFromProduct.
func (j *joinState) levelSum(l, to int) blockSum {
	var s blockSum
	if to == 0 {
		return s
	}
	for b := range int32(j.rightN) {
		pend := s.pend
		j.charge(b, l, nil, 0, to, &s)
		if l == 0 && s.pend > pend {
			j.cands = append(j.cands, b)
		}
	}
	return s
}

// heldSum adds to s what the block at level l holding digits is charged for
// the keys from heldFrom(l) on: only the build rows ix holds under the
// block's value of that key can add to it.
func (j *joinState) heldSum(ix *keyIndex, l, from int, digits []int32, s *blockSum) {
	c := &j.lk[from]
	lo, hi := ix.find(c.at(digits[c.part]))
	for _, b := range ix.rows[lo:hi] {
		j.charge(b, l, digits, from, len(j.lk), s)
	}
}

// charge adds to s what build row b is charged, for keys from…to−1, by the
// product rows of the block at level l holding digits: per key, how many of
// them agree with b on every key up to it.
func (j *joinState) charge(b int32, l int, digits []int32, from, to int, s *blockSum) {
	fk, last := j.product, len(j.lk)-1
	if !fk.load(j.rk, b, from, l) {
		return
	}
	for k := from; k < to; k++ {
		if c := &j.lk[k]; c.part < l && c.at(digits[c.part]) != fk.vals[k] {
			return
		}
		n := fk.agreeing(k, l)
		if n == 0 {
			return
		}
		if k < last {
			s.comps += n
		} else {
			s.pend += n
		}
	}
}

// load reads the other side's row's values through cols and matches them
// against factors l, l+1, …, the one holding key from first: it reports
// false, having matched no other, when that factor has no row agreeing on
// its keys up to from, so that no product row agrees on keys 0…from.
func (fk *factorKeys) load(cols []joinCol, row int32, from, l int) bool {
	for k := range cols {
		fk.vals[k] = cols[k].at(row)
	}
	first := fk.cols[from].part
	if first >= l {
		fk.match(first)
		if fk.cnt[first][fk.upto[from][first]] == 0 {
			return false
		}
	}
	for f := l; f < len(fk.parts); f++ {
		if f != first {
			fk.match(f)
		}
	}
	return true
}

// emitFromProduct writes an admitted probeProduct's pairs in probe order:
// each factor's row into lpos[factor], the build row into rpos. What the
// keyed factors' rows and the build row can be is listed and sorted once,
// from the build rows that match; walk then interleaves the keyless
// factors' rows.
func (j *joinState) emitFromProduct(lpos [][]int32, rpos []int32) {
	fk := j.product
	var keyed []uint64
	for _, b := range j.cands {
		fk.load(j.rk, b, 0, 0)
		keyed = fk.appendKeyed(keyed, 0, 0, b)
	}
	slices.Sort(keyed)
	j.walk(keyed, lpos, rpos, 0, 0, make([]int32, len(fk.parts)))
}

// walk writes from row x on, in product order and then in tag order, the
// pairs whose keyed factors' rows and tag are in keyed — sorted, and agreeing
// on the rows of the keyed factors before f — with every row of each keyless
// factor from f on and dig's rows for the factors before f: each factor's row
// into rows[factor], the tag into tags. It returns the next row.
func (j *joinState) walk(keyed []uint64, rows [][]int32, tags []int32, x, f int, dig []int32) int {
	fk := j.product
	switch {
	case f == len(fk.parts):
		for _, p := range keyed {
			for g, d := range dig {
				rows[g][x] = d
			}
			tags[x] = int32(uint32(p))
			x++
		}
	case len(fk.keys[f]) == 0:
		for d := range int32(fk.parts[f].N) {
			dig[f] = d
			x = j.walk(keyed, rows, tags, x, f+1, dig)
		}
	default:
		s, n := fk.stride[f], int32(fk.parts[f].N)
		row := func(p uint64) int32 { return int32(p>>32) / s % n }
		for lo := 0; lo < len(keyed); {
			dig[f] = row(keyed[lo])
			hi := lo + 1
			for hi < len(keyed) && row(keyed[hi]) == dig[f] {
				hi++
			}
			x = j.walk(keyed[lo:hi], rows, tags, x, f+1, dig)
			lo = hi
		}
	}
	return x
}

// probeIntoProduct admits a left input against a right input that is a
// cross product, a left row at a time as probeAll does: how many product
// rows agree with the row on keys 0…k is the product of its factors' counts,
// so no product row is looked at.
func (j *joinState) probeIntoProduct(hashOps, comps int64) error {
	w, fk := j.w, j.e.newFactorKeys(j.right, j.rk)
	j.product = fk
	room, perRow, last := j.e.room(w), hashOps+comps, len(j.lk)-1
	var owed, pending int64
	probes := j.probes
	n := int32(j.left[0].N)
	for a := range n {
		if fk.load(j.lk, a, 0, 0) {
			for k := range j.lk {
				m := fk.agreeing(k, 0)
				if m == 0 {
					break
				}
				if k < last {
					owed += m
				} else {
					owed += 2 * m
					pending += m
					probes = appendProbe(probes, probe{a: a})
				}
			}
		}
		if int64(a+1)*perRow+owed > room {
			w.HashOps += int64(a+1) * hashOps
			w.Comparisons += int64(a+1)*comps + owed - 2*pending
			return ErrBudget
		}
	}
	w.HashOps += int64(n) * hashOps
	w.Comparisons += int64(n)*comps + owed - 2*pending
	j.pending, j.probes = int(pending), probes
	return nil
}

// emitIntoProduct writes an admitted probeIntoProduct's pairs: per probe
// row, in order, the product rows that agree with it, ascending, each
// factor's row into rpos[factor].
func (j *joinState) emitIntoProduct(lpos []int32, rpos [][]int32) {
	fk, x := j.product, 0
	var keyed []uint64
	dig := make([]int32, len(fk.parts))
	for _, p := range j.probes {
		fk.load(j.lk, p.a, 0, 0)
		keyed = fk.appendKeyed(keyed[:0], 0, 0, p.a)
		x = j.walk(keyed, rpos, lpos, x, 0, dig)
	}
}

// bytes is what the result holds: per row an id per relation or a value per
// column, and per relation its 48-byte header; a cross product holds its
// factors and a pointer to each.
func (r *Result) bytes() int64 {
	if r.factors != nil {
		n := 8 * int64(len(r.factors))
		for _, f := range r.factors {
			n += f.bytes()
		}
		return n
	}
	return int64(r.N)*int64(4*len(r.rels)+8*len(r.cols)) + 48*int64(len(r.rels))
}
