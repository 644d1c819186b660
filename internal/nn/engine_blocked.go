package nn

// The dispatcher: the one engine every layer and optimizer step runs on,
// choosing a kernel per call from what it can observe.
//
// Dispatch rule, in order:
//  1. Shape. A product under blockedMinFlops multiply-adds, or with fewer
//     than blockedMR output rows — in particular the 1×d products of greedy
//     rollouts and per-sample inference — runs the serial reference row
//     kernel (matMulRows / matMulATBRows / matMulABTRows) and is bitwise
//     identical to the oracle.
//  2. CPU. Larger float32 a·b products run the AVX2+FMA vector tiles
//     (gemm_amd64.go) when the one-time CPUID check passed and the output is
//     at least one vector panel wide; larger float32 a·bᵀ products — the
//     learner's dx — run the no-FMA gemv kernels (gemv_amd64.go) over bᵀ
//     packed into 16-column panels when b's rows fill whole panels.
//  3. Otherwise the portable 2×4 Go tiles below.
//
// Layout: the k dimension is cut into KC-deep blocks; for each block the
// needed rows of B are packed into NR-wide column panels (panel-major, so
// the microkernel streams B contiguously), then the output rows run in
// MR-row tiles. The 2×4 kernel keeps its 8 partial
// sums in registers across the whole k block — 6 loads feed 16 flops per k
// step, versus the reference kernel's two loads and a store per multiply-add
// — and the packed panel plus MR rows of A fit L1. The tile is 2×4 rather
// than 4×4 deliberately: 8 accumulators plus 4 packed B values and 2 A values
// stay within amd64's 16 vector registers, where a 4×4 tile's 21 live floats
// spill to the stack and forfeit the win.
//
// Numerics contract: register accumulation per k block reorders each output
// element's summation (the oracle adds every product straight into memory in
// k order) and the vector tiles fuse each multiply-add, so tiled a·b and aᵀ·b
// results match the oracle by tolerance (f64 rel ≤1e-12, f32 rel ≤1e-4), not
// bitwise; a·bᵀ and AdamStep are bitwise identical to it on every path.
// Determinism holds throughout: the blocking is a pure function of the
// shapes, so a product is identical across runs and concurrent callers.

const (
	// blockedKC is the k-block depth: one packed B panel is KC×NR elements
	// (4 KB at f32) and each microkernel pass adds MR×KC elements of A, so
	// the inner loops run from L1-resident data.
	blockedKC = 256
	// blockedMR × blockedNR is the register tile: 8 partial sums held in
	// registers per microkernel invocation (see the register-budget note in
	// the package comment above).
	blockedMR = 2
	blockedNR = 4
	// blockedMinFlops is the multiply-accumulate count under which blocking
	// (zeroing, packing, tile bookkeeping) costs more than it saves and the
	// serial reference kernel runs instead.
	blockedMinFlops = 1 << 12
)

// BlockedTileConfig reports the portable tile geometry (register tile MR×NR,
// k-block depth KC) for reproducible perf reports. When Dispatch reports
// gemm=avx2+fma the a·b path instead runs 4×16 vector tiles; the k-block
// depth is KC either way.
func BlockedTileConfig() (mr, nr, kc int) { return blockedMR, blockedNR, blockedKC }

// blockedEngineOf is the dispatcher (see the dispatch rule above).
type blockedEngineOf[T Float] struct{}

// MatMul computes out = a·b with the blocked kernel.
func (blockedEngineOf[T]) MatMul(a, b, out *MatOf[T]) {
	checkMatMulShape(a, b, out)
	gemmBlocked(a, b, out, false)
}

// MatMulATB computes out (+)= aᵀ·b by materializing aᵀ into pooled scratch
// (an O(M·K) copy against the O(M·K·N) product) and running the blocked
// kernel on it. Tiny products skip the transpose and run the reference
// kernel directly.
func (blockedEngineOf[T]) MatMulATB(a, b, out *MatOf[T], accum bool) {
	checkMatMulATBShape(a, b, out)
	if a.Cols < blockedMR || a.Rows < 2 || a.Rows*a.Cols*b.Cols < blockedMinFlops {
		if !accum {
			out.Zero()
		}
		matMulATBRows(a, b, out)
		return
	}
	at := getVec[T](a.Rows * a.Cols)
	transposeInto(*at, a)
	atm := getMat[T]()
	own := *atm
	*atm = MatOf[T]{Rows: a.Cols, Cols: a.Rows, Data: *at}
	gemmBlocked(atm, b, out, accum)
	*atm = own // the view must not outlive the pooled vec it aliases
	putMat(atm)
	putVec(at)
}

// MatMulABT computes out = a·bᵀ. Every path keeps each output element one
// ascending-k fold of separately rounded products, starting from zero — the
// reference kernel's order — so all of them are bitwise identical to it: the
// no-FMA gemv kernel over bᵀ packed into 16-column panels (float32, when the
// CPUID gate passed and b's rows fill whole panels), otherwise 2×4 tiles of
// Go dot products over b's rows, which are already the contiguous reduction
// vectors.
func (blockedEngineOf[T]) MatMulABT(a, b, out *MatOf[T]) {
	checkMatMulABTShape(a, b, out)
	if a.Rows < 2 || a.Rows*a.Cols*b.Rows < blockedMinFlops {
		matMulABTRows(a, b, out, 0, a.Rows)
		return
	}
	if !matMulABTAsm(a, b, out) {
		matMulABTBlockedRows(a, b, out)
	}
}

// LinearForward computes out = x·w + bias on the blocked kernel.
func (blockedEngineOf[T]) LinearForward(x, w *MatOf[T], bias []T, out *MatOf[T]) {
	checkMatMulShape(x, w, out)
	gemmBlocked(x, w, out, false)
	addBiasRows(out, bias)
}

// LinearBackward accumulates dW += xᵀ·dout and dB += Σrows dout and computes
// dx = dout·wᵀ (unless dx is nil), all on the blocked kernels.
func (e blockedEngineOf[T]) LinearBackward(x, dout, w *MatOf[T], dW, dB []T, dx *MatOf[T]) {
	// Pooled dW view, as in the reference engine: a stack literal would
	// escape through the kernel call and allocate on every backward pass;
	// its own storage is put back before it returns to the pool, so no later
	// taker writes into dW.
	dWm := getMat[T]()
	own := *dWm
	*dWm = MatOf[T]{Rows: x.Cols, Cols: dout.Cols, Data: dW}
	e.MatMulATB(x, dout, dWm, true)
	*dWm = own
	putMat(dWm)
	addColSums(dout, dB)
	if dx != nil {
		e.MatMulABT(dout, w, dx)
	}
}

// AdamStep routes through the vector kernels when the CPUID gate passed
// (non-FMA multiply/add plus correctly rounded sqrt and divide, so the
// vector lanes round exactly like the scalar loop), with the scalar loop
// covering the lane remainder and every CPU without the kernels.
func (blockedEngineOf[T]) AdamStep(p, grad, m, v []T, a AdamArgs[T]) {
	checkAdamShape(p, grad, m, v)
	done := adamStepAsm(p, grad, m, v, &a)
	adamStepRows(p, grad, m, v, a, done, len(p))
}

// gemmBlocked computes out (+)= a·b with KC-blocking and packed panels.
// Callers have checked shapes. When accum is false out is zeroed first; the
// k blocks then accumulate into it in ascending order.
func gemmBlocked[T Float](a, b, out *MatOf[T], accum bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if !accum {
		out.Zero()
	}
	if m < blockedMR || m*k*n < blockedMinFlops {
		matMulRows(a, b, out)
		return
	}
	if gemmBlockedAsm(a, b, out) {
		return
	}
	np := n - n%blockedNR
	var bpv *[]T
	var bp []T
	if np > 0 {
		bpv = getVec[T](min(blockedKC, k) * np)
		bp = *bpv
	}
	for kc0 := 0; kc0 < k; kc0 += blockedKC {
		kc1 := min(kc0+blockedKC, k)
		if np > 0 {
			packBPanelsN(b, kc0, kc1, np, blockedNR, bp)
		}
		gemmBlockRows(a, b, bp, kc0, kc1, out)
	}
	if bpv != nil {
		putVec(bpv)
	}
}

// packBPanelsN copies B[kc0:kc1, 0:np] into nr-wide k-major panels: panel
// jp/nr holds rows kc0..kc1 of columns jp..jp+nr contiguously, so the
// microkernels read B with stride 1. Columns from b.Cols up to np pad the
// last panel with zeros. Shared by the portable tiles, the vector GEMM path
// (whole panels only) and the per-snapshot inference packer.
func packBPanelsN[T Float](b *MatOf[T], kc0, kc1, np, nr int, bp []T) {
	idx := 0
	for jp := 0; jp < np; jp += nr {
		for k := kc0; k < kc1; k++ {
			n := copy(bp[idx:idx+nr], b.Row(k)[jp:min(jp+nr, b.Cols)])
			clear(bp[idx+n : idx+nr])
			idx += nr
		}
	}
}

// gemmBlockRows accumulates out += A[:, kc0:kc1]·B[kc0:kc1, :]
// for one packed k block: 2×4 register tiles over the packed panels, a
// scalar column edge for n%NR trailing columns, and 1×4 tiles for a trailing
// odd row. Inner-loop indexing is shaped for bounds-check elimination: the A
// rows are pre-sliced to exactly kc elements so the range index covers both,
// and each panel step reads element 3 first so the remaining three loads are
// provably in bounds.
func gemmBlockRows[T Float](a, b *MatOf[T], bp []T, kc0, kc1 int, out *MatOf[T]) {
	kc := kc1 - kc0
	m, n := out.Rows, out.Cols
	np := n - n%blockedNR
	i := 0
	for ; i+blockedMR <= m; i += blockedMR {
		a0 := a.Row(i)[kc0:kc1]
		a1 := a.Row(i + 1)[kc0:kc1]
		o0 := out.Row(i)
		o1 := out.Row(i + 1)
		for jp := 0; jp < np; jp += blockedNR {
			p := bp[(jp/blockedNR)*kc*blockedNR:]
			var c00, c01, c02, c03 T
			var c10, c11, c12, c13 T
			for k, av0 := range a0 {
				av1 := a1[k]
				b3 := p[3]
				b0 := p[0]
				b1 := p[1]
				b2 := p[2]
				p = p[blockedNR:]
				c00 += av0 * b0
				c01 += av0 * b1
				c02 += av0 * b2
				c03 += av0 * b3
				c10 += av1 * b0
				c11 += av1 * b1
				c12 += av1 * b2
				c13 += av1 * b3
			}
			o0[jp] += c00
			o0[jp+1] += c01
			o0[jp+2] += c02
			o0[jp+3] += c03
			o1[jp] += c10
			o1[jp+1] += c11
			o1[jp+2] += c12
			o1[jp+3] += c13
		}
		for j := np; j < n; j++ {
			bcol := b.Data[kc0*b.Cols+j:]
			var s0, s1 T
			for k, av0 := range a0 {
				bv := bcol[k*b.Cols]
				s0 += av0 * bv
				s1 += a1[k] * bv
			}
			o0[j] += s0
			o1[j] += s1
		}
	}
	for ; i < m; i++ {
		arow := a.Row(i)[kc0:kc1]
		orow := out.Row(i)
		for jp := 0; jp < np; jp += blockedNR {
			p := bp[(jp/blockedNR)*kc*blockedNR:]
			var c0, c1, c2, c3 T
			for _, av := range arow {
				b3 := p[3]
				c0 += av * p[0]
				c1 += av * p[1]
				c2 += av * p[2]
				c3 += av * b3
				p = p[blockedNR:]
			}
			orow[jp] += c0
			orow[jp+1] += c1
			orow[jp+2] += c2
			orow[jp+3] += c3
		}
		for j := np; j < n; j++ {
			bcol := b.Data[kc0*b.Cols+j:]
			var s T
			for k := 0; k < kc; k++ {
				s += arow[k] * bcol[k*b.Cols]
			}
			orow[j] += s
		}
	}
}

// transposeInto writes aᵀ into dst (len a.Rows*a.Cols, column-major over a),
// four rows of a at a time, so each store fills four adjacent elements of
// dst instead of one element a whole row of aᵀ from the last.
func transposeInto[T Float](dst []T, a *MatOf[T]) {
	rows := a.Rows
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0 := a.Row(i)
		r1, r2, r3 := a.Row(i + 1)[:len(r0)], a.Row(i + 2)[:len(r0)], a.Row(i + 3)[:len(r0)]
		for j, v := range r0 {
			d := dst[j*rows+i : j*rows+i+4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
		}
	}
	for ; i < rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			dst[j*rows+i] = v
		}
	}
}

// matMulABTBlockedRows computes out = a·bᵀ with 2×4 register tiles. Each
// output element is one ascending-k dot product — the same order the
// reference kernel uses, so the results are bitwise identical to
// matMulABTRows.
func matMulABTBlockedRows[T Float](a, b, out *MatOf[T]) {
	nb := b.Rows
	nbt := nb - nb%4
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Row(i)
		a1 := a.Row(i + 1)
		o0 := out.Row(i)
		o1 := out.Row(i + 1)
		for j := 0; j < nbt; j += 4 {
			b0 := b.Row(j)
			b1 := b.Row(j + 1)
			b2 := b.Row(j + 2)
			b3 := b.Row(j + 3)
			var c00, c01, c02, c03 T
			var c10, c11, c12, c13 T
			for k, av0 := range a0 {
				av1 := a1[k]
				bv := b0[k]
				c00 += av0 * bv
				c10 += av1 * bv
				bv = b1[k]
				c01 += av0 * bv
				c11 += av1 * bv
				bv = b2[k]
				c02 += av0 * bv
				c12 += av1 * bv
				bv = b3[k]
				c03 += av0 * bv
				c13 += av1 * bv
			}
			o0[j] = c00
			o0[j+1] = c01
			o0[j+2] = c02
			o0[j+3] = c03
			o1[j] = c10
			o1[j+1] = c11
			o1[j+2] = c12
			o1[j+3] = c13
		}
		for j := nbt; j < nb; j++ {
			brow := b.Row(j)
			var s0, s1 T
			for k, av0 := range a0 {
				bv := brow[k]
				s0 += av0 * bv
				s1 += a1[k] * bv
			}
			o0[j] = s0
			o1[j] = s1
		}
	}
	if i < a.Rows {
		matMulABTRows(a, b, out, i, a.Rows)
	}
}
