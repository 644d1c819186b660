//go:build amd64

package nn

// AVX2+FMA microkernels for the blocked engine's a·b path. The scalar Go
// kernels top out at the core's two FP ports — roughly two flops per cycle no
// matter how the loop is tiled — so the only way past the reference kernel's
// throughput on wide shapes is vector arithmetic. GOAMD64 defaults to v1, so
// the kernels are hand-written assembly (gemm_amd64.s) gated by a one-time
// CPUID check rather than compiler-emitted VEX code.
//
// Kernel shape: 4 output rows × two 8-lane ymm columns — 16 float32 columns
// per tile — with the 8 accumulator registers live across the whole k block,
// fed by the same packed panels the portable kernel uses (just NR=16 instead
// of 4). There is no float64 kernel: no network computes in float64, and the
// float64 instantiation the tests use as their oracle runs the portable
// tiles. Each output element still accumulates in ascending k
// order, one fused multiply-add per step; fusion skips the intermediate
// product rounding, so results match the reference kernels within the blocked
// engine's tolerance contract, and every element's arithmetic is a pure
// function of the shapes. The n%NR column edge always runs the same scalar
// Go loop for every row.

const (
	// asmMR is the microkernel row count; row remainders run the 1-row kernel.
	asmMR = 4
	// asmNRF32 is the packed-panel width: two ymm registers of columns per
	// k step.
	asmNRF32 = 16
)

// cpuid and xgetbv are implemented in gemm_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuAVX2FMA reports whether the CPU and OS support the vector kernels:
// FMA and AVX2 instruction sets, with OS-managed ymm state (OSXSAVE set and
// XCR0 enabling both XMM and YMM saves).
var cpuAVX2FMA = detectAVX2FMA()

// asmGemmEnabled routes gemmBlocked through the vector kernels. It starts at
// the detected capability; tests flip it through setAsmGemm to cover the
// portable kernels on hardware that would never otherwise run them.
var asmGemmEnabled = cpuAVX2FMA

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// setAsmGemm is a test hook: it enables or disables the vector kernels
// (enabling is a no-op on CPUs without them) and returns the previous
// setting so tests can restore it.
func setAsmGemm(on bool) bool {
	prev := asmGemmEnabled
	asmGemmEnabled = on && cpuAVX2FMA
	return prev
}

// Microkernels (gemm_amd64.s). Each accumulates
// out[r][0:NR] += Σ_k a_r[k]·bp[k·NR : k·NR+NR] for kc steps of one packed
// panel, in ascending k order with one FMA per element per step.
//
//go:noescape
func gemm4x16f32(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32)

//go:noescape
func gemm1x16f32(kc int, a0, bp, o0 *float32)

// gemmBlockedAsm routes out += a·b through the vector kernels, returning
// false (having written nothing) when they are unavailable or unprofitable:
// detection failed, tests forced the portable path, the precision has no
// kernel, or the output is too narrow for even one vector panel. Callers have
// zeroed (or deliberately kept) out and filtered tiny shapes.
func gemmBlockedAsm[T Float](a, b, out *MatOf[T]) bool {
	if !asmGemmEnabled {
		return false
	}
	am, ok := any(a).(*MatOf[float32])
	if !ok || b.Cols < asmNRF32 {
		return false
	}
	gemmBlockedF32(am, any(b).(*MatOf[float32]), any(out).(*MatOf[float32]))
	return true
}

// gemmColEdge accumulates the n%NR trailing columns of every output row as
// plain ascending-k dot products over unpacked B: each element one chain of
// separately rounded products from zero, added into the output. Four rows'
// chains run side by side, so each value of B's column, a whole row of B
// from the next, is read once for four rows instead of once per row; every
// chain still folds exactly its own products in ascending k. The sums go
// out through an array so that the final add, like the one-row loop's, has
// the sum as its first operand, which decides the NaN kept where two meet
// (TestGemmColEdgeBitwise holds the whole edge to the one-row loop, NaN
// payloads included).
func gemmColEdge[T Float](a, b *MatOf[T], kc0, kc1 int, out *MatOf[T], np int) {
	i := 0
	for ; i+4 <= out.Rows; i += 4 {
		a0 := a.Row(i)[kc0:kc1]
		a1 := a.Row(i + 1)[kc0:kc1]
		a2 := a.Row(i + 2)[kc0:kc1]
		a3 := a.Row(i + 3)[kc0:kc1]
		a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		for j := np; j < out.Cols; j++ {
			bcol := b.Data[kc0*b.Cols+j:]
			var s0, s1, s2, s3 T
			for k, av := range a0 {
				bv := bcol[k*b.Cols]
				s0 += av * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			sums := [4]T{s0, s1, s2, s3}
			for r, s := range sums {
				orow := out.Row(i + r)
				orow[j] += s
			}
		}
	}
	for ; i < out.Rows; i++ {
		arow := a.Row(i)[kc0:kc1]
		orow := out.Row(i)
		for j := np; j < out.Cols; j++ {
			bcol := b.Data[kc0*b.Cols+j:]
			var s T
			for k, av := range arow {
				s += av * bcol[k*b.Cols]
			}
			orow[j] += s
		}
	}
}

func gemmBlockedF32(a, b, out *MatOf[float32]) {
	k, n := a.Cols, b.Cols
	np := n - n%asmNRF32
	bpv := getVec[float32](min(blockedKC, k) * np)
	bp := *bpv
	for kc0 := 0; kc0 < k; kc0 += blockedKC {
		kc1 := min(kc0+blockedKC, k)
		packBPanelsN(b, kc0, kc1, np, asmNRF32, bp)
		gemmAsmRowsF32(a, b, bp, kc0, kc1, out)
	}
	putVec(bpv)
}

// gemmAsmRowsF32 runs one packed k block over every row: 4-row vector tiles,
// the 1-row kernel for the row remainder, and the scalar column edge.
func gemmAsmRowsF32(a, b *MatOf[float32], bp []float32, kc0, kc1 int, out *MatOf[float32]) {
	kc := kc1 - kc0
	np := out.Cols - out.Cols%asmNRF32
	i := 0
	for ; i+asmMR <= out.Rows; i += asmMR {
		a0 := a.Row(i)[kc0:kc1]
		a1 := a.Row(i + 1)[kc0:kc1]
		a2 := a.Row(i + 2)[kc0:kc1]
		a3 := a.Row(i + 3)[kc0:kc1]
		o0, o1 := out.Row(i), out.Row(i+1)
		o2, o3 := out.Row(i+2), out.Row(i+3)
		for jp := 0; jp < np; jp += asmNRF32 {
			gemm4x16f32(kc, &a0[0], &a1[0], &a2[0], &a3[0],
				&bp[(jp/asmNRF32)*kc*asmNRF32],
				&o0[jp], &o1[jp], &o2[jp], &o3[jp])
		}
	}
	for ; i < out.Rows; i++ {
		arow := a.Row(i)[kc0:kc1]
		orow := out.Row(i)
		for jp := 0; jp < np; jp += asmNRF32 {
			gemm1x16f32(kc, &arow[0], &bp[(jp/asmNRF32)*kc*asmNRF32], &orow[jp])
		}
	}
	gemmColEdge(a, b, kc0, kc1, out, np)
}
