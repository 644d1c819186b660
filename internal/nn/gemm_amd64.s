//go:build amd64

#include "textflag.h"

// AVX2+FMA microkernels for the blocked engine (see gemm_amd64.go for the
// contract). Register plan, shared by all kernels:
//
//	Y0–Y7   accumulators (row r uses Y(2r) for columns 0–7·lanes, Y(2r+1)
//	        for the second ymm of columns)
//	Y8, Y9  the current k step's packed B panel row
//	Y10,Y11 broadcast A values
//	DX      kc (loop bound)   BX  k index
//	R8–R11  A row pointers    SI  packed panel pointer, advanced per k
//	DI      output row pointer during the epilogue
//
// Each k step issues one FMA per live accumulator, so every output element
// folds its products in ascending k order — the ordering half of the engine
// numeric contract — and the 1-row kernels round identically to the 4-row
// ones.

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x16f32(kc int, a0, a1, a2, a3, bp, o0, o1, o2, o3 *float32)
TEXT ·gemm4x16f32(SB), NOSPLIT, $0-80
	MOVQ   kc+0(FP), DX
	MOVQ   a0+8(FP), R8
	MOVQ   a1+16(FP), R9
	MOVQ   a2+24(FP), R10
	MOVQ   a3+32(FP), R11
	MOVQ   bp+40(FP), SI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   BX, BX
	CMPQ   BX, DX
	JGE    done4x16

loop4x16:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (R8)(BX*4), Y10
	VBROADCASTSS (R9)(BX*4), Y11
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (R10)(BX*4), Y10
	VBROADCASTSS (R11)(BX*4), Y11
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7
	ADDQ         $64, SI
	INCQ         BX
	CMPQ         BX, DX
	JLT          loop4x16

done4x16:
	MOVQ       o0+48(FP), DI
	VADDPS     (DI), Y0, Y0
	VMOVUPS    Y0, (DI)
	VADDPS     32(DI), Y1, Y1
	VMOVUPS    Y1, 32(DI)
	MOVQ       o1+56(FP), DI
	VADDPS     (DI), Y2, Y2
	VMOVUPS    Y2, (DI)
	VADDPS     32(DI), Y3, Y3
	VMOVUPS    Y3, 32(DI)
	MOVQ       o2+64(FP), DI
	VADDPS     (DI), Y4, Y4
	VMOVUPS    Y4, (DI)
	VADDPS     32(DI), Y5, Y5
	VMOVUPS    Y5, 32(DI)
	MOVQ       o3+72(FP), DI
	VADDPS     (DI), Y6, Y6
	VMOVUPS    Y6, (DI)
	VADDPS     32(DI), Y7, Y7
	VMOVUPS    Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x16f32(kc int, a0, bp, o0 *float32)
TEXT ·gemm1x16f32(SB), NOSPLIT, $0-32
	MOVQ   kc+0(FP), DX
	MOVQ   a0+8(FP), R8
	MOVQ   bp+16(FP), SI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   BX, BX
	CMPQ   BX, DX
	JGE    done1x16

loop1x16:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (R8)(BX*4), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	ADDQ         $64, SI
	INCQ         BX
	CMPQ         BX, DX
	JLT          loop1x16

done1x16:
	MOVQ       o0+24(FP), DI
	VADDPS     (DI), Y0, Y0
	VMOVUPS    Y0, (DI)
	VADDPS     32(DI), Y1, Y1
	VMOVUPS    Y1, 32(DI)
	VZEROUPPER
	RET
