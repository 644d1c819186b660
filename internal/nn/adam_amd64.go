//go:build amd64

package nn

// Vector kernel for the fused Adam step. Unlike the GEMM microkernels it
// deliberately avoids FMA: the update is one multiply/add chain per element
// (no cross-element reduction), and separate VMULP/VADDP instructions round
// each intermediate exactly like the scalar Go expression — VSQRTP and VDIVP
// are correctly rounded by IEEE-754, and float32's sqrt-through-float64
// double rounding is innocuous (53 ≥ 2·24+2) — so the vector lanes are
// bitwise identical to the reference loop. The win is the 8-wide data path
// over a fused single pass of the parameter, gradient, and both moment
// arrays, not contraction.
//
// The kernel shares the GEMM gate's CPUID detection (it needs AVX and
// OS-managed ymm state; requiring the full AVX2+FMA gate keeps one knob) and
// the setAsmGemm test hook, so the portable-path CI legs cover the scalar
// loop on hardware that would never otherwise run it.

// asmAdamEnabled routes the blocked engine's AdamStep through the vector
// kernels. It follows the GEMM gate: detection plus the setAsmAdam hook.
var asmAdamEnabled = cpuAVX2FMA

// setAsmAdam is a test hook mirroring setAsmGemm for the Adam kernels.
func setAsmAdam(on bool) bool {
	prev := asmAdamEnabled
	asmAdamEnabled = on && cpuAVX2FMA
	return prev
}

// Vector kernel (adam_amd64.s). It processes elements [0, n) — n a multiple
// of the lane width — of one fused update, reading the broadcast constants
// from a by struct offset.
//
//go:noescape
func adamStep8f32(n int, p, grad, m, v *float32, a *AdamArgs[float32])

// adamStepAsm runs the vector kernel over the largest lane-aligned prefix of
// a float32 update and returns how many elements were processed (0 when the
// kernel is unavailable, disabled, the update is not float32, or the slice
// is shorter than one vector). The caller finishes [done, len) with the
// scalar loop.
func adamStepAsm[T Float](p, grad, m, v []T, a *AdamArgs[T]) int {
	pt, ok := any(p).([]float32)
	n := len(p) - len(p)%8
	if !asmAdamEnabled || !ok || n == 0 {
		return 0
	}
	adamStep8f32(n, &pt[0], &any(grad).([]float32)[0], &any(m).([]float32)[0], &any(v).([]float32)[0], any(a).(*AdamArgs[float32]))
	return n
}
