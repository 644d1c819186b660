//go:build amd64

package nn

// Vector gemv kernels. Like the Adam kernel they deliberately avoid FMA:
// each output element is an ascending-k fold of x[k]·panel[k][j] with a
// separate multiply and add per step, starting from zero, which rounds
// exactly like the reference scalar kernels. They have two callers, both
// bitwise identical to the reference:
//   - packed inference (packed.go) runs the one single-row kernel over
//     panels packed once per snapshot, folding only the nonzero x[k] — the
//     reference matMulRows skips av == 0 the same way — so it matches the
//     unpacked 1×d path;
//   - the blocked engine's MatMulABT — the learner's dx = dout·Wᵀ — runs the
//     four-row kernel and, for the rows left over, the single-row kernel over
//     every k (matMulABTRows skips nothing), both over Wᵀ packed per call
//     into pooled panels.

// asmGemvEnabled routes packed gemv, a·bᵀ and the ReLUs through the vector
// kernels. It shares the GEMM gate's detection (AVX2 permutes and plain ymm
// arithmetic, no FMA, plus POPCNT, which every AVX2 CPU has; one knob keeps
// the matrix small) and has its own test hook.
var asmGemvEnabled = cpuAVX2FMA

// setAsmGemv is a test hook mirroring setAsmGemm for the gemv kernels. It
// takes effect on the next MatMulABT, but only on packs built afterwards —
// an existing pack remembers the layout it was built for.
func setAsmGemv(on bool) bool {
	prev := asmGemvEnabled
	asmGemvEnabled = on && cpuAVX2FMA
	return prev
}

// gemvRow16f32 is the single-row vector kernel (gemv_amd64.s): out += x·P
// over np k-major 16-column panels P of kc rows each, every output element
// one fold of x[k]·P[k][j] in ascending k. With all = 0 the fold takes only
// the nonzero x[k] (a NaN counts as nonzero) — the steps the reference
// matMulRows takes — with all = 1 every k, as matMulABTRows does. For
// finite panels both give the same bits, since a ±0 product never changes a
// fold that starts at +0; they differ only where a skipped zero would meet
// an infinite or NaN weight. Its adds take the product as first operand, as
// matMulRows' compiled fold does, so where two NaNs meet the kernel keeps
// the one the reference keeps; matMulABTRows folds in a register, the
// accumulator first, so for the a·bᵀ remainder rows only NaN-ness is the
// reference's in that case.
//
//go:noescape
func gemvRow16f32(kc int, x *float32, panels *float32, np int, out *float32, all int)

// gemv4x16f32 is the dense fold for four rows of x through one panel at
// once: out_r[0:NR] = Σ_k x_r[k]·panel[k·NR : k·NR+NR], each element rounded
// exactly as the single-row kernel rounds it.
//
//go:noescape
func gemv4x16f32(kc int, x0, x1, x2, x3, panel, o0, o1, o2, o3 *float32)

// gemvCompress is the single-row kernel's compaction table: row m lists, in
// ascending order, the lanes whose bit is set in the eight-bit mask m, so a
// permute by it moves the kept lanes of a group to the front.
var gemvCompress = func() (t [256][8]int32) {
	for m := range t {
		n := 0
		for lane := 0; lane < 8; lane++ {
			if m&(1<<lane) != 0 {
				t[m][n] = int32(lane)
				n++
			}
		}
	}
	return t
}()

// gemvAsm runs the single-row vector kernel over every packed panel,
// folding only the nonzero x[k], and reports whether it did; false (nothing
// written) when the kernel is unavailable, the pack is not float32, or its
// panel width does not match the asm layout.
func gemvAsm[T Float](x, panels, out []T, nr int) bool {
	if !asmGemvEnabled || nr != asmNRF32 {
		return false
	}
	xs, ok := any(x).([]float32)
	if !ok {
		return false
	}
	gemvRowF32(xs, any(panels).([]float32), any(out).([]float32), 0)
	return true
}

// gemvRowF32 computes out = x·P with the single-row kernel (all as there);
// len(out) is a multiple of 16.
func gemvRowF32(x, panels, out []float32, all int) {
	clear(out)
	if len(x) == 0 || len(out) == 0 {
		return
	}
	gemvRow16f32(len(x), &x[0], &panels[0], len(out)/asmNRF32, &out[0], all)
}

// matMulABTAsm computes out = a·bᵀ with the gemv kernels over bᵀ and
// reports whether it did; false (nothing written) when the kernels are off,
// the precision is not float32, or b's rows do not fill whole panels. bᵀ is
// packed once per call into pooled panels — panel p holds b's rows
// p·NR … p·NR+NR−1 as k-major NR-wide steps. Every element is the same
// ascending-k fold whichever kernel its row lands on (which of two meeting
// NaNs it keeps aside, see gemvRow16f32).
func matMulABTAsm[T Float](a, b, out *MatOf[T]) bool {
	if !asmGemvEnabled || a.Cols == 0 || b.Rows%asmNRF32 != 0 {
		return false
	}
	am, ok := any(a).(*MatOf[float32])
	if !ok {
		return false
	}
	bm := any(b).(*MatOf[float32])
	k := a.Cols
	pv := getVec[float32](k * b.Rows)
	panels := *pv
	for j := 0; j < b.Rows; j++ {
		p := panels[(j/asmNRF32)*k*asmNRF32+j%asmNRF32:]
		for kk, v := range bm.Row(j) {
			p[kk*asmNRF32] = v
		}
	}
	matMulABTRowsF32(am, panels, any(out).(*MatOf[float32]))
	putVec(pv)
	return true
}

// matMulABTRowsF32 runs a packed a·bᵀ over every row of out: four rows per
// panel pass, the single-row kernel over every k for the remainder. panels holds bᵀ in
// asmNRF32-column panels, k-major.
func matMulABTRowsF32(a *MatOf[float32], panels []float32, out *MatOf[float32]) {
	k := a.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0, o1, o2, o3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		for jp := 0; jp < len(o0); jp += asmNRF32 {
			gemv4x16f32(k, &a0[0], &a1[0], &a2[0], &a3[0], &panels[jp*k],
				&o0[jp], &o1[jp], &o2[jp], &o3[jp])
		}
	}
	for ; i < a.Rows; i++ {
		gemvRowF32(a.Row(i), panels, out.Row(i), 1)
	}
}
