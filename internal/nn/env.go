package nn

// CPU/kernel introspection for operational tooling (`handsfree env`): which
// ISA features the host exposes and which implementation each engine kernel
// resolves to on this host. Read-only views over the same flags the
// dispatchers consult — reported and executed paths cannot drift.

// CPUFeatures reports the ISA capabilities the kernel dispatchers probe at
// startup: the two the ymm kernels (GEMM, gemv, Adam) need.
type CPUFeatures struct {
	AVX2 bool // ymm integer/float vectors, OS-enabled
	FMA  bool // fused multiply-add (used by the GEMM microkernels)
}

// DetectCPU returns the host's probed feature set. On non-amd64 builds every
// field is false and all kernels run portable Go.
func DetectCPU() CPUFeatures {
	// The amd64 probe requires AVX2 and FMA together (the GEMM kernels use
	// both), so one flag backs both fields.
	return CPUFeatures{AVX2: cpuAVX2FMA, FMA: cpuAVX2FMA}
}

// KernelDispatch names the implementation each engine entry point resolves
// to on this host. Values are "avx2+fma", "avx2" (vector without FMA, for
// the bitwise-constrained kernels), or "portable".
type KernelDispatch struct {
	Gemm string // tiled GEMM microkernel (shapes above the small-shape threshold)
	Gemv string // shared-packing inference panels and the learner's a·bᵀ
	Adam string // fused Adam step
}

// Dispatch reports the current kernel routing.
func Dispatch() KernelDispatch {
	d := KernelDispatch{Gemm: "portable", Gemv: "portable", Adam: "portable"}
	if asmGemmEnabled {
		d.Gemm = "avx2+fma"
	}
	if asmGemvEnabled {
		d.Gemv = "avx2" // multiply-then-add per step; no FMA by contract
	}
	if asmAdamEnabled {
		d.Adam = "avx2" // same bitwise contract as gemv
	}
	return d
}
