//go:build amd64

#include "textflag.h"

// Fused Adam vector kernel (see adam_amd64.go for the bitwise contract).
// Register plan:
//
//	Y7–Y15  broadcast constants, in AdamArgs field order:
//	        Scale, B1, NB1, B2, NB2, C1, C2, LR, Eps
//	Y0      scaled gradient g        Y1  first moment m
//	Y2      second moment v          Y3–Y5 temporaries
//	DX      n (loop bound)           BX  element index
//	DI p    SI grad    R8 m    R9 v  R10 args pointer
//
// Every intermediate matches the scalar expression's association exactly:
// in particular v' = B2·v + (NB2·g)·g multiplies NB2·g first (Go's
// left-associative NB2*g*g), and the final step is (LR·mhat)/(sqrt+Eps).
// No FMA anywhere — each multiply and add rounds separately, as the scalar
// loop does.

// func adamStep8f32(n int, p, grad, m, v *float32, a *AdamArgs[float32])
TEXT ·adamStep8f32(SB), NOSPLIT, $0-48
	MOVQ         n+0(FP), DX
	MOVQ         p+8(FP), DI
	MOVQ         grad+16(FP), SI
	MOVQ         m+24(FP), R8
	MOVQ         v+32(FP), R9
	MOVQ         a+40(FP), R10
	VBROADCASTSS 0(R10), Y7
	VBROADCASTSS 4(R10), Y8
	VBROADCASTSS 8(R10), Y9
	VBROADCASTSS 12(R10), Y10
	VBROADCASTSS 16(R10), Y11
	VBROADCASTSS 20(R10), Y12
	VBROADCASTSS 24(R10), Y13
	VBROADCASTSS 28(R10), Y14
	VBROADCASTSS 32(R10), Y15
	XORQ         BX, BX

loop8f32:
	VMOVUPS (SI)(BX*4), Y0 // grad
	VMULPS  Y7, Y0, Y0     // g = Scale·grad
	VMOVUPS (R8)(BX*4), Y1 // m
	VMULPS  Y8, Y1, Y1     // B1·m
	VMULPS  Y9, Y0, Y3     // NB1·g
	VADDPS  Y3, Y1, Y1     // m' = B1·m + NB1·g
	VMOVUPS Y1, (R8)(BX*4)
	VMOVUPS (R9)(BX*4), Y2 // v
	VMULPS  Y10, Y2, Y2    // B2·v
	VMULPS  Y11, Y0, Y4    // NB2·g
	VMULPS  Y0, Y4, Y4     // (NB2·g)·g
	VADDPS  Y4, Y2, Y2     // v' = B2·v + (NB2·g)·g
	VMOVUPS Y2, (R9)(BX*4)
	VDIVPS  Y12, Y1, Y3    // mhat = m'/C1
	VDIVPS  Y13, Y2, Y4    // vhat = v'/C2
	VSQRTPS Y4, Y4
	VADDPS  Y15, Y4, Y4    // sqrt(vhat) + Eps
	VMULPS  Y14, Y3, Y3    // LR·mhat
	VDIVPS  Y4, Y3, Y3     // step = (LR·mhat)/(sqrt+Eps)
	VMOVUPS (DI)(BX*4), Y5
	VSUBPS  Y3, Y5, Y5     // p -= step
	VMOVUPS Y5, (DI)(BX*4)
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     loop8f32
	VZEROUPPER
	RET
