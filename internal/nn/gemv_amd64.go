//go:build amd64

package nn

// Vector gemv kernels. Like the Adam kernel they deliberately avoid FMA:
// each output element is an ascending-k fold of x[k]·panel[k][j] with a
// separate multiply and add per step, starting from zero, which rounds
// exactly like the reference scalar kernels. They have two callers, both
// bitwise identical to the reference:
//   - packed inference (packed.go) runs the 1-row kernel over panels packed
//     once per snapshot, matching the unpacked 1×d path;
//   - the blocked engine's MatMulABT — the learner's dx = dout·Wᵀ — runs
//     both over Wᵀ, packed per call into pooled panels, matching
//     matMulABTRows.

// asmGemvEnabled routes packed gemv and a·bᵀ through the vector kernels. It
// shares the GEMM gate's detection (plain AVX ymm arithmetic, no FMA, but one
// knob keeps the matrix small) and has its own test hook.
var asmGemvEnabled = cpuAVX2FMA

// setAsmGemv is a test hook mirroring setAsmGemm for the gemv kernels. It
// takes effect on the next MatMulABT, but only on packs built afterwards —
// an existing pack remembers the layout it was built for.
func setAsmGemv(on bool) bool {
	prev := asmGemvEnabled
	asmGemvEnabled = on && cpuAVX2FMA
	return prev
}

// Vector kernel (gemv_amd64.s): out[0:NR] = Σ_k x[k]·panel[k·NR : k·NR+NR]
// over kc steps of one packed panel, ascending k, multiply-then-add per step.
//
//go:noescape
func gemv16f32(kc int, x, panel, out *float32)

// gemv4x16f32 is gemv16f32 for four rows of x through one panel at once:
// out_r[0:NR] = Σ_k x_r[k]·panel[k·NR : k·NR+NR], each element rounded
// exactly as the 1-row kernel rounds it.
//
//go:noescape
func gemv4x16f32(kc int, x0, x1, x2, x3, panel, o0, o1, o2, o3 *float32)

// gemvAsm runs the vector kernel over every packed panel and reports
// whether it did; false (nothing written) when the kernel is unavailable,
// the pack is not float32, or its panel width does not match the asm layout.
func gemvAsm[T Float](x, panels, out []T, nr int) bool {
	if !asmGemvEnabled || len(x) == 0 || nr != asmNRF32 {
		return false
	}
	xs, ok := any(x).([]float32)
	if !ok {
		return false
	}
	ps := any(panels).([]float32)
	os := any(out).([]float32)
	kc := len(xs)
	for jp := 0; jp < len(os); jp += asmNRF32 {
		gemv16f32(kc, &xs[0], &ps[jp*kc], &os[jp])
	}
	return true
}

// matMulABTAsm computes out = a·bᵀ with the gemv kernels over bᵀ and
// reports whether it did; false (nothing written) when the kernels are off,
// the precision is not float32, or b's rows do not fill whole panels. bᵀ is
// packed once per call into pooled panels — panel p holds b's rows
// p·NR … p·NR+NR−1 as k-major NR-wide steps. Every element is computed the
// same way whichever kernel its row lands on.
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
// panel pass, the 1-row kernel for the remainder. panels holds bᵀ in
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
		arow, orow := a.Row(i), out.Row(i)
		for jp := 0; jp < len(orow); jp += asmNRF32 {
			gemv16f32(k, &arow[0], &panels[jp*k], &orow[jp])
		}
	}
}
