//go:build amd64

#include "textflag.h"

// Packed-panel gemv kernels (see gemv_amd64.go for the bitwise contract).
// Multiply and add are separate instructions — each product rounds before it
// is folded, exactly as the scalar reference kernel rounds.

// Lane offsets of the gather's eight-wide steps: lane i of a group starting
// at row k reads row k+i, 64 bytes further into a panel per row.
DATA gemvLanes<>+0(SB)/4, $0
DATA gemvLanes<>+4(SB)/4, $64
DATA gemvLanes<>+8(SB)/4, $128
DATA gemvLanes<>+12(SB)/4, $192
DATA gemvLanes<>+16(SB)/4, $256
DATA gemvLanes<>+20(SB)/4, $320
DATA gemvLanes<>+24(SB)/4, $384
DATA gemvLanes<>+28(SB)/4, $448
GLOBL gemvLanes<>(SB), RODATA|NOPTR, $32

// func gemvRow16f32(kc int, x *float32, panels *float32, np int, out *float32, all int)
//
// out (np 16-column panels, zeroed by the caller) += x·P, P the k-major
// panels (panel p starts p·kc·64 bytes after panels). k goes in blocks of
// 256. Each block is first gathered into the frame, branch-free: the steps,
// x[k] at 1024(SP)+4n and the byte offset k·64 of row k at 0(SP)+4n, for
// every k unless x[k] is ±0 and all is 0. Eight x at a time, VCMPPS
// (predicate 4, not-equal or unordered, so a NaN is kept) and VMOVMSKPS give
// the lanes to keep, gemvCompress's row for that mask moves them to the
// front (VPERMPS, VPERMD) and POPCNT advances n; the block's last x%8 go one
// at a time (VUCOMISS: ZF clear for a nonzero, PF set for a NaN). Then
// every panel folds the block's steps in order, four panels at a time —
// eight accumulator chains, Y0–Y7, so the add latency overlaps — then two,
// then one, each output loaded and stored around the block. Each step
// multiplies weight by x and adds the product to the accumulator with the
// operands in the order the reference scalar fold's compiled code uses,
// weight first and product first: where two NaNs meet, the first operand's
// is the one kept, so the order decides the bits of a NaN output.
//
// Registers, gathering: R11 x, BX k, R9 the block's end, R8/R13 the offset
// and value arrays, DX n, R10 gemvCompress, SI the mask all forces (0 or
// 0xff), R12 all, Y5 the group's offsets, Y9 their step, Y7 zero.
// Folding: Y8 the broadcast step value, Y9–Y15 products; R8 the offsets,
// R12 the values, SI/R9/R10/R11 the panels in flight, R13 the panel stride,
// CX panels left, DI out, DX the block's step count, BX the step index, AX
// its offset. 2048(SP) holds the next block's first k.
TEXT ·gemvRow16f32(SB), $2056-48
	MOVQ $0, 2048(SP)

block:
	MOVQ    2048(SP), BX
	MOVQ    kc+0(FP), R9
	CMPQ    BX, R9
	JGE     donerow
	LEAQ    256(BX), R10
	CMPQ    R10, R9
	CMOVQLT R10, R9
	MOVQ    R9, 2048(SP)
	MOVQ    x+8(FP), R11
	MOVQ    all+40(FP), R12
	LEAQ    0(SP), R8
	LEAQ    1024(SP), R13
	LEAQ    ·gemvCompress(SB), R10
	MOVQ    R12, SI
	SHLQ    $8, SI
	SUBQ    R12, SI
	VXORPS  Y7, Y7, Y7
	MOVQ    BX, AX
	SHLQ    $6, AX
	VMOVD   AX, X5
	VPBROADCASTD X5, Y5
	VPADDD  gemvLanes<>(SB), Y5, Y5
	MOVL    $512, AX
	VMOVD   AX, X9
	VPBROADCASTD X9, Y9
	XORQ    DX, DX

gather8:
	LEAQ      8(BX), AX
	CMPQ      AX, R9
	JGT       gather1
	VMOVUPS   (R11)(BX*4), Y0
	VCMPPS    $4, Y7, Y0, Y1
	VMOVMSKPS Y1, AX
	ORL       SI, AX
	MOVQ      AX, CX
	SHLQ      $5, CX
	VMOVDQU   (R10)(CX*1), Y2
	VPERMPS   Y0, Y2, Y3
	VPERMD    Y5, Y2, Y4
	VMOVUPS   Y3, (R13)(DX*4)
	VMOVDQU   Y4, (R8)(DX*4)
	POPCNTL   AX, AX
	ADDQ      AX, DX
	VPADDD    Y9, Y5, Y5
	ADDQ      $8, BX
	JMP       gather8

gather1:
	CMPQ     BX, R9
	JGE      gathered
	VMOVSS   (R11)(BX*4), X0
	MOVQ     BX, AX
	SHLQ     $6, AX
	MOVL     AX, (R8)(DX*4)
	VMOVSS   X0, (R13)(DX*4)
	VUCOMISS X7, X0
	SETNE    AL
	SETPS    CL
	ORB      CL, AL
	MOVBQZX  AL, AX
	ORQ      R12, AX
	ADDQ     AX, DX
	INCQ     BX
	JMP      gather1

gathered:
	TESTQ DX, DX
	JEQ   block
	MOVQ  R13, R12
	MOVQ  kc+0(FP), R13
	SHLQ  $6, R13
	MOVQ  panels+16(FP), SI
	MOVQ  np+24(FP), CX
	MOVQ  out+32(FP), DI

quad:
	CMPQ    CX, $4
	JLT     pair
	LEAQ    (SI)(R13*1), R9
	LEAQ    (R9)(R13*1), R10
	LEAQ    (R10)(R13*1), R11
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	XORQ    BX, BX

quadloop:
	MOVL         (R8)(BX*4), AX
	VBROADCASTSS (R12)(BX*4), Y8
	VMOVUPS      (SI)(AX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y0, Y9, Y0
	VMOVUPS      32(SI)(AX*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y1, Y10, Y1
	VMOVUPS      (R9)(AX*1), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y2, Y11, Y2
	VMOVUPS      32(R9)(AX*1), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y3, Y12, Y3
	VMOVUPS      (R10)(AX*1), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y4, Y13, Y4
	VMOVUPS      32(R10)(AX*1), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y5, Y14, Y5
	VMOVUPS      (R11)(AX*1), Y15
	VMULPS       Y8, Y15, Y15
	VADDPS       Y6, Y15, Y6
	VMOVUPS      32(R11)(AX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y7, Y9, Y7
	INCQ         BX
	CMPQ         BX, DX
	JLT          quadloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	LEAQ    (R11)(R13*1), SI
	ADDQ    $256, DI
	SUBQ    $4, CX
	JMP     quad

pair:
	CMPQ    CX, $2
	JLT     single
	LEAQ    (SI)(R13*1), R9
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ    BX, BX

pairloop:
	MOVL         (R8)(BX*4), AX
	VBROADCASTSS (R12)(BX*4), Y8
	VMOVUPS      (SI)(AX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y0, Y9, Y0
	VMOVUPS      32(SI)(AX*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y1, Y10, Y1
	VMOVUPS      (R9)(AX*1), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y2, Y11, Y2
	VMOVUPS      32(R9)(AX*1), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y3, Y12, Y3
	INCQ         BX
	CMPQ         BX, DX
	JLT          pairloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	LEAQ    (R9)(R13*1), SI
	ADDQ    $128, DI
	SUBQ    $2, CX

single:
	CMPQ    CX, $1
	JLT     block
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	XORQ    BX, BX

singleloop:
	MOVL         (R8)(BX*4), AX
	VBROADCASTSS (R12)(BX*4), Y8
	VMOVUPS      (SI)(AX*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y0, Y9, Y0
	VMOVUPS      32(SI)(AX*1), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y1, Y10, Y1
	INCQ         BX
	CMPQ         BX, DX
	JLT          singleloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	JMP     block

donerow:
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
