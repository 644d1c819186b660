//go:build amd64

#include "textflag.h"

// Packed-panel gemv kernel (see gemv_amd64.go for the bitwise contract).
// Register plan:
//
//	Y0, Y1  accumulators (columns 0–7·lanes and the second ymm of columns)
//	Y8, Y9  the current k step's packed panel row
//	Y10     broadcast x value      Y2, Y3  multiply temporaries
//	DX      kc (loop bound)        BX      k index
//	R8      x pointer              SI      panel pointer, advanced per k
//	DI      output pointer during the epilogue
//
// Multiply and add are separate instructions — each product rounds before it
// is folded, exactly as the scalar reference kernel rounds.

// func gemv16f32(kc int, x, panel, out *float32)
TEXT ·gemv16f32(SB), NOSPLIT, $0-32
	MOVQ   kc+0(FP), DX
	MOVQ   x+8(FP), R8
	MOVQ   panel+16(FP), SI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   BX, BX
	CMPQ   BX, DX
	JGE    donev16

loopv16:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (R8)(BX*4), Y10
	VMULPS       Y8, Y10, Y2
	VADDPS       Y2, Y0, Y0
	VMULPS       Y9, Y10, Y3
	VADDPS       Y3, Y1, Y1
	ADDQ         $64, SI
	INCQ         BX
	CMPQ         BX, DX
	JLT          loopv16

donev16:
	MOVQ       out+24(FP), DI
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	VZEROUPPER
	RET

// func gemv4x16f32(kc int, x0, x1, x2, x3, panel, o0, o1, o2, o3 *float32)
//
// Four rows of x through the same panel: Y0–Y7 accumulate row r in Y(2r)
// and Y(2r+1), Y8/Y9 hold the k step's panel row, Y10 the broadcast x value
// and Y11/Y12 the products — the 1-row kernel's multiply-then-add per step,
// with four times the independent accumulator chains.
TEXT ·gemv4x16f32(SB), NOSPLIT, $0-80
	MOVQ   kc+0(FP), DX
	MOVQ   x0+8(FP), R8
	MOVQ   x1+16(FP), R9
	MOVQ   x2+24(FP), R10
	MOVQ   x3+32(FP), R11
	MOVQ   panel+40(FP), SI
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
	JGE    donev4x16

loopv4x16:
	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (R8)(BX*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (R9)(BX*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (R10)(BX*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (R11)(BX*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $64, SI
	INCQ         BX
	CMPQ         BX, DX
	JLT          loopv4x16

donev4x16:
	MOVQ       o0+48(FP), DI
	VMOVUPS    Y0, (DI)
	VMOVUPS    Y1, 32(DI)
	MOVQ       o1+56(FP), DI
	VMOVUPS    Y2, (DI)
	VMOVUPS    Y3, 32(DI)
	MOVQ       o2+64(FP), DI
	VMOVUPS    Y4, (DI)
	VMOVUPS    Y5, 32(DI)
	MOVQ       o3+72(FP), DI
	VMOVUPS    Y6, (DI)
	VMOVUPS    Y7, 32(DI)
	VZEROUPPER
	RET
