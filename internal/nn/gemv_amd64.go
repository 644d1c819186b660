//go:build amd64

package nn

// Vector gemv kernel for packed inference. Like the Adam kernel it
// deliberately avoids FMA: each output element is an ascending-k fold of
// x[k]·panel[k][j] with a separate multiply and add per step, which rounds
// exactly like the reference scalar kernel — so packed inference is bitwise
// identical to the unpacked 1×d path while moving 16 float32 columns per
// instruction pair through a panel that was packed once per snapshot.

// asmGemvEnabled routes packed gemv through the vector kernels. It shares
// the GEMM gate's detection (plain AVX ymm arithmetic, no FMA, but one knob
// keeps the matrix small) and has its own test hook.
var asmGemvEnabled = cpuAVX2FMA

// setAsmGemv is a test hook mirroring setAsmGemm for the gemv kernels. It
// only affects packs built afterwards — an existing pack remembers the
// layout it was built for.
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
