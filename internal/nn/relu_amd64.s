//go:build amd64

#include "textflag.h"

// ReLU kernels (see relu_amd64.go): selects, not branches. Eight lanes at a
// time, then one.

// func relu8f32(n int, dst, src *float32)
//
// dst[i] = src[i] > 0 ? src[i] : +0. VMAXPS returns its second source (here
// zero) unless the first is greater, so NaN and −0 both give +0.
TEXT ·relu8f32(SB), NOSPLIT, $0-24
	MOVQ   n+0(FP), CX
	MOVQ   dst+8(FP), DI
	MOVQ   src+16(FP), SI
	VXORPS Y1, Y1, Y1
	XORQ   BX, BX

relu8:
	LEAQ    8(BX), AX
	CMPQ    AX, CX
	JGT     relu1
	VMOVUPS (SI)(BX*4), Y0
	VMAXPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	MOVQ    AX, BX
	JMP     relu8

relu1:
	CMPQ   BX, CX
	JGE    donerelu
	VMOVSS (SI)(BX*4), X0
	VMAXSS X1, X0, X0
	VMOVSS X0, (DI)(BX*4)
	INCQ   BX
	JMP    relu1

donerelu:
	VZEROUPPER
	RET

// func reluGrad8f32(n int, dx, dout, y *float32)
//
// dx[i] = y[i] > 0 ? dout[i] : +0: VCMPPS (predicate 0x1E, greater-than,
// ordered, quiet) makes an all-ones lane where y > 0, and VANDPS keeps
// dout's bits there and clears them elsewhere.
TEXT ·reluGrad8f32(SB), NOSPLIT, $0-32
	MOVQ   n+0(FP), CX
	MOVQ   dx+8(FP), DI
	MOVQ   dout+16(FP), SI
	MOVQ   y+24(FP), DX
	VXORPS Y1, Y1, Y1
	XORQ   BX, BX

grad8:
	LEAQ    8(BX), AX
	CMPQ    AX, CX
	JGT     grad1
	VMOVUPS (DX)(BX*4), Y0
	VCMPPS  $0x1e, Y1, Y0, Y2
	VANDPS  (SI)(BX*4), Y2, Y2
	VMOVUPS Y2, (DI)(BX*4)
	MOVQ    AX, BX
	JMP     grad8

grad1:
	CMPQ   BX, CX
	JGE    donegrad
	VMOVSS (DX)(BX*4), X0
	VCMPSS $0x1e, X1, X0, X2
	VMOVSS (SI)(BX*4), X3
	VANDPS X3, X2, X2
	VMOVSS X2, (DI)(BX*4)
	INCQ   BX
	JMP    grad1

donegrad:
	VZEROUPPER
	RET
