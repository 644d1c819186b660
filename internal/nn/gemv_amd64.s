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
