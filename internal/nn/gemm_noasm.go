//go:build !amd64

package nn

// Non-amd64 builds have no vector microkernels: the blocked engine always
// runs the portable 2×4 register-tiled Go kernels.

const cpuAVX2FMA = false

// The asm panel width exists on every platform (packed.go sizes its stack
// accumulator with it); without the kernels it is never selected as a pack's
// layout.
const asmNRF32 = 16

var asmGemmEnabled = false

// setAsmGemm is the test hook for toggling the vector kernels; without them
// it reports the (permanently false) setting unchanged.
func setAsmGemm(bool) bool { return false }

// gemmBlockedAsm reports that no vector kernel path exists.
func gemmBlockedAsm[T Float](a, b, out *MatOf[T]) bool { return false }

var asmGemvEnabled = false

// setAsmGemv is the test hook for the gemv kernels; permanently false.
func setAsmGemv(bool) bool { return false }

// gemvAsm reports that no vector gemv kernel exists (nothing written).
func gemvAsm[T Float](x, panels, out []T, nr int) bool { return false }

// matMulABTAsm reports that no vector a·bᵀ path exists (nothing written).
func matMulABTAsm[T Float](a, b, out *MatOf[T]) bool { return false }

// reluAsm reports that no vector ReLU kernel exists (nothing written).
func reluAsm[T Float](dst, src []T) bool { return false }

// reluGradAsm reports that no vector ReLU gradient kernel exists.
func reluGradAsm[T Float](dx, dout, y []T) bool { return false }

var asmAdamEnabled = false

// setAsmAdam is the test hook for the Adam vector kernels; without them it
// reports the (permanently false) setting unchanged.
func setAsmAdam(bool) bool { return false }

// adamStepAsm reports that no vector Adam kernel exists: zero elements done.
func adamStepAsm[T Float](p, grad, m, v []T, a *AdamArgs[T]) int { return 0 }
