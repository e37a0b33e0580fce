#include "textflag.h"

// The ternary digit of v against threshold t>0 is
//
//	q = 1 - (v >= t) + (v <= -t)   with the compares as 0/-1 masks,
//
// the selected dequantization level is dqPos/dqNeg/dqZero by the same
// masks, and the packed quartic byte of digits d0..d4 is
// 81*d0 + 27*d1 + 9*d2 + 3*d3 + d4.
//
// The pack uses a multiply trick: loading 8 little-endian digit bytes as
// a uint64 x and multiplying by
//
//	C = 81<<32 | 27<<24 | 9<<16 | 3<<8 | 1 = 0x511B090301
//
// makes byte 4 of x*C exactly 81*d0+27*d1+9*d2+3*d3+d4: every partial
// product below byte 4 sums to < 256 for digits <= 2 (worst case 80), so
// no carry reaches byte 4, and bytes beyond d4 only contribute to bytes
// >= 5. One MOVQ/IMULQ/SHRQ/MOVB per group replaces 5 scalar multiplies.

// func quantPackBlocks(buf *float32, out *byte, blocks int, tpos, tneg, dqNeg, dqZero, dqPos float32)
//
// Register plan per 8-float vector:
//	Y0 = v            Y1 = mask(v >= tpos)    Y2 = mask(v <= tneg)
//	Y3 = digits       Y4 = dequant selection  Y5 = residual
// Constants: Y15=tpos Y14=tneg Y13=dqNeg Y12=dqZero Y11=dqPos Y10=int32(1)
// Digit bytes for one block (8 groups = 5 vectors) land in 40 stack
// bytes; the combine loop folds each 5-byte run into one wire byte.
TEXT ·quantPackBlocks(SB), NOSPLIT, $48-44
	MOVQ buf+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ blocks+16(FP), CX
	VBROADCASTSS tpos+24(FP), Y15
	VBROADCASTSS tneg+28(FP), Y14
	VBROADCASTSS dqNeg+32(FP), Y13
	VBROADCASTSS dqZero+36(FP), Y12
	VBROADCASTSS dqPos+40(FP), Y11
	VPCMPEQD Y10, Y10, Y10
	VPSRLD $31, Y10, Y10
	MOVQ $0x511B090301, R9

blockloop:
	TESTQ CX, CX
	JZ done

	// vector 0: elements 0..7 -> digit bytes 0..7 on the stack
	VMOVUPS (SI), Y0
	VCMPPS $13, Y15, Y0, Y1    // GE_OS: false on NaN, like Go >=
	VCMPPS $2, Y14, Y0, Y2     // LE_OS
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5          // residual = v - dq[q], v as operand 1
	VMOVUPS Y5, (SI)
	VPACKSSDW Y3, Y3, Y6       // dwords -> words, per 128-bit lane
	VPERMQ $0x08, Y6, Y6       // gather the two low-qword word runs
	VPACKUSWB X6, X6, X6       // words -> bytes
	VMOVQ X6, 0(SP)

	// vector 1
	VMOVUPS 32(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 32(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 8(SP)

	// vector 2
	VMOVUPS 64(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 64(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 16(SP)

	// vector 3
	VMOVUPS 96(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 96(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 24(SP)

	// vector 4
	VMOVUPS 128(SI), Y0
	VCMPPS $13, Y15, Y0, Y1
	VCMPPS $2, Y14, Y0, Y2
	VPSUBD Y1, Y10, Y3
	VPADDD Y2, Y3, Y3
	VBLENDVPS Y1, Y11, Y12, Y4
	VBLENDVPS Y2, Y13, Y4, Y4
	VSUBPS Y4, Y0, Y5
	VMOVUPS Y5, 128(SI)
	VPACKSSDW Y3, Y3, Y6
	VPERMQ $0x08, Y6, Y6
	VPACKUSWB X6, X6, X6
	VMOVQ X6, 32(SP)

	// combine: groups g=0..7 read 8 digit bytes at 5g, emit byte 4 of x*C
	MOVQ 0(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, (DI)
	MOVQ 5(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 1(DI)
	MOVQ 10(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 2(DI)
	MOVQ 15(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 3(DI)
	MOVQ 20(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 4(DI)
	MOVQ 25(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 5(DI)
	MOVQ 30(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 6(DI)
	MOVQ 35(SP), AX
	IMULQ R9, AX
	SHRQ $32, AX
	MOVB AX, 7(DI)

	ADDQ $160, SI
	ADDQ $8, DI
	DECQ CX
	JMP blockloop

done:
	VZEROUPPER
	RET

// func addScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int
//
// Per literal byte b: dst[0:5] += tab[b] as one 16-byte VADDPS plus one
// scalar VADDSS (the 16-byte loads are safe because tab has 256 padded
// rows, so row+16 is always in bounds). dst is operand 1 of both adds to
// match the scalar loop's NaN behavior. Exits at the first marker byte
// (> 242), returning bytes consumed.
TEXT ·addScaledLiteralsAsm(SB), NOSPLIT, $0-40
	MOVQ tab+0(FP), R8
	MOVQ body+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	XORQ DX, DX

addloop:
	CMPQ DX, CX
	JGE adddone
	MOVBLZX (SI)(DX*1), AX
	CMPL AX, $242
	JA adddone
	LEAQ (AX)(AX*4), AX        // row offset = b * 20
	SHLQ $2, AX
	VMOVUPS (R8)(AX*1), X0
	VMOVSS 16(R8)(AX*1), X1
	VMOVUPS (DI), X2
	VMOVSS 16(DI), X3
	VADDPS X0, X2, X2          // dst + row, dst as operand 1
	VADDSS X1, X3, X3
	VMOVUPS X2, (DI)
	VMOVSS X3, 16(DI)
	ADDQ $20, DI
	INCQ DX
	JMP addloop

adddone:
	MOVQ DX, ret+32(FP)
	RET

// func setScaledLiteralsAsm(tab *[256][5]float32, body *byte, n int, dst *float32) int
//
// Write form: dst[0:5] = tab[b].
TEXT ·setScaledLiteralsAsm(SB), NOSPLIT, $0-40
	MOVQ tab+0(FP), R8
	MOVQ body+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ dst+24(FP), DI
	XORQ DX, DX

setloop:
	CMPQ DX, CX
	JGE setdone
	MOVBLZX (SI)(DX*1), AX
	CMPL AX, $242
	JA setdone
	LEAQ (AX)(AX*4), AX
	SHLQ $2, AX
	VMOVUPS (R8)(AX*1), X0
	VMOVSS 16(R8)(AX*1), X1
	VMOVUPS X0, (DI)
	VMOVSS X1, 16(DI)
	ADDQ $20, DI
	INCQ DX
	JMP setloop

setdone:
	MOVQ DX, ret+32(FP)
	RET

// func linearForward8x4(acc *float32, xt *float32, w *float32, in int)
//
// nn.Linear forward for a block of 4 batch rows x 8 outputs. xt is the
// row block transposed to [in][4], so one 16-byte load gives x[r..r+3, i];
// w points at W[o,0] and its 8 rows sit in back to back. The XMM lanes are
// the 4 rows: accumulator Xk holds y[r..r+3, o+k]. Each starts at +0 and
// adds x*W[o+k,i] in ascending i as a separate VMULPS (x as operand 1) and
// VADDPS (the accumulator as operand 1), the per-element sequence of the
// Go loops; no FMA. acc receives the 32 sums output-major, acc[4k+j] =
// y[r+j, o+k] before the bias, which the caller adds.
TEXT ·linearForward8x4(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ xt+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ in+24(FP), CX
	MOVQ CX, BX
	SHLQ $2, BX                // row stride in bytes
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), DX
	ADDQ DX, BX                // BX = row 7
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	XORQ AX, AX

fwdloop:
	CMPQ AX, CX
	JGE fwddone
	VMOVUPS (SI), X8
	VBROADCASTSS (R8)(AX*4), X9
	VMULPS X9, X8, X9
	VADDPS X9, X0, X0
	VBROADCASTSS (R9)(AX*4), X10
	VMULPS X10, X8, X10
	VADDPS X10, X1, X1
	VBROADCASTSS (R10)(AX*4), X11
	VMULPS X11, X8, X11
	VADDPS X11, X2, X2
	VBROADCASTSS (R11)(AX*4), X12
	VMULPS X12, X8, X12
	VADDPS X12, X3, X3
	VBROADCASTSS (R12)(AX*4), X9
	VMULPS X9, X8, X9
	VADDPS X9, X4, X4
	VBROADCASTSS (R13)(AX*4), X10
	VMULPS X10, X8, X10
	VADDPS X10, X5, X5
	VBROADCASTSS (DX)(AX*4), X11
	VMULPS X11, X8, X11
	VADDPS X11, X6, X6
	VBROADCASTSS (BX)(AX*4), X12
	VMULPS X12, X8, X12
	VADDPS X12, X7, X7
	ADDQ $16, SI
	INCQ AX
	JMP fwdloop

fwddone:
	VMOVUPS X0, 0(DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VMOVUPS X3, 48(DI)
	VMOVUPS X4, 64(DI)
	VMOVUPS X5, 80(DI)
	VMOVUPS X6, 96(DI)
	VMOVUPS X7, 112(DI)
	VZEROUPPER
	RET

// func linearBackward4(gw, w, x, dx *float32, in, n int, g0, g1, g2, g3 float32)
//
// nn.Linear backward for one output o and a block of 4 batch rows whose
// upstream gradients g0..g3 are all nonzero, over columns [0, n), n a
// multiple of 8. gw and w are the output's rows of Weight.G and W; x and
// dx point at the block's first row, the other three follow at stride in.
// Per 8 columns:
//
//	gw = (((gw + g0*x0) + g1*x1) + g2*x2) + g3*x3
//	dx_r += g_r*w   for r = 0..3
//
// each product a VMULPS with g as operand 1 and each sum a VADDPS with the
// accumulator as operand 1, as in the Go loop; no FMA.
TEXT ·linearBackward4(SB), NOSPLIT, $0-64
	MOVQ gw+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ dx+24(FP), R12
	MOVQ in+32(FP), BX
	MOVQ n+40(FP), CX
	VBROADCASTSS g0+48(FP), Y12
	VBROADCASTSS g1+52(FP), Y13
	VBROADCASTSS g2+56(FP), Y14
	VBROADCASTSS g3+60(FP), Y15
	SHLQ $2, CX                // columns -> bytes
	SHLQ $2, BX                // row stride in bytes
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), DX
	ADDQ DX, BX                // BX = dx row 3
	XORQ AX, AX

bwdloop:
	CMPQ AX, CX
	JGE bwddone
	VMOVUPS (DI)(AX*1), Y0
	VMULPS (R8)(AX*1), Y12, Y1
	VADDPS Y1, Y0, Y0
	VMULPS (R9)(AX*1), Y13, Y1
	VADDPS Y1, Y0, Y0
	VMULPS (R10)(AX*1), Y14, Y1
	VADDPS Y1, Y0, Y0
	VMULPS (R11)(AX*1), Y15, Y1
	VADDPS Y1, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS (SI)(AX*1), Y2
	VMOVUPS (R12)(AX*1), Y4
	VMULPS Y2, Y12, Y3
	VADDPS Y3, Y4, Y4
	VMOVUPS Y4, (R12)(AX*1)
	VMOVUPS (R13)(AX*1), Y5
	VMULPS Y2, Y13, Y3
	VADDPS Y3, Y5, Y5
	VMOVUPS Y5, (R13)(AX*1)
	VMOVUPS (DX)(AX*1), Y6
	VMULPS Y2, Y14, Y3
	VADDPS Y3, Y6, Y6
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS (BX)(AX*1), Y7
	VMULPS Y2, Y15, Y3
	VADDPS Y3, Y7, Y7
	VMOVUPS Y7, (BX)(AX*1)
	ADDQ $32, AX
	JMP bwdloop

bwddone:
	VZEROUPPER
	RET
