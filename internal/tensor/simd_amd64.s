// AVX2 fp64 rank-update kernels for the matmul fast path, y += Σ_r c_r·x_r
// over one, four or eight ranks, plus the CPUID/XGETBV probes behind
// haveAVX2. Each 256-bit lane holds one independent output element, and per
// element the kernels run exactly the scalar chain's rounding sequence —
// load y, then for each rank in order VMULPD (round the product) and VADDPD
// into y (round the sum), then store y. No FMA and no horizontal sums, so
// every output is bit-identical to the generic Go loop. n must be a positive
// multiple of 4; the caller finishes the n%4 tail in Go. Sixteen elements
// per iteration keep four independent add chains in flight.

#include "textflag.h"

// y[AX : AX+16) → Y0..Y3 (the four accumulators).
#define LOAD16(P) \
	VMOVUPD (P)(AX*8), Y0; \
	VMOVUPD 32(P)(AX*8), Y1; \
	VMOVUPD 64(P)(AX*8), Y2; \
	VMOVUPD 96(P)(AX*8), Y3

#define STORE16(P) \
	VMOVUPD Y0, (P)(AX*8); \
	VMOVUPD Y1, 32(P)(AX*8); \
	VMOVUPD Y2, 64(P)(AX*8); \
	VMOVUPD Y3, 96(P)(AX*8)

// Accumulators += C · X[AX : AX+16): products rounded first, then added.
#define RANK16(X, C) \
	VMULPD (X)(AX*8), C, Y4; \
	VMULPD 32(X)(AX*8), C, Y5; \
	VMULPD 64(X)(AX*8), C, Y6; \
	VMULPD 96(X)(AX*8), C, Y7; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y6, Y2, Y2; \
	VADDPD Y7, Y3, Y3

// Y0 += C · X[AX : AX+4).
#define RANK4(X, C) \
	VMULPD (X)(AX*8), C, Y4; \
	VADDPD Y4, Y0, Y0

// func axpyAsm(alpha float64, x, y *float64, n int)
// y[j] = y[j] + alpha·x[j] for j < n.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y8
	MOVQ x+8(FP), R8
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ CX, SI
	ANDQ $-16, SI
	XORQ AX, AX
	CMPQ AX, SI
	JGE  axpy4
axpy16:
	LOAD16(DI)
	RANK16(R8, Y8)
	STORE16(DI)
	ADDQ $16, AX
	CMPQ AX, SI
	JLT  axpy16
axpy4:
	CMPQ AX, CX
	JGE  axpydone
axpy4loop:
	VMOVUPD (DI)(AX*8), Y0
	RANK4(R8, Y8)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  axpy4loop
axpydone:
	VZEROUPPER
	RET

// func axpy4Asm(c *[4]float64, x *float64, stride int, y *float64, n int)
// y[j] = y[j] + c0·x[j] + c1·x[stride+j] + c2·x[2·stride+j] + c3·x[3·stride+j],
// left to right.
TEXT ·axpy4Asm(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), SI
	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	MOVQ x+8(FP), R8
	MOVQ stride+16(FP), BX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	MOVQ y+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ CX, SI
	ANDQ $-16, SI
	XORQ AX, AX
	CMPQ AX, SI
	JGE  quad4
quad16:
	LOAD16(DI)
	RANK16(R8, Y8)
	RANK16(R9, Y9)
	RANK16(R10, Y10)
	RANK16(R11, Y11)
	STORE16(DI)
	ADDQ $16, AX
	CMPQ AX, SI
	JLT  quad16
quad4:
	CMPQ AX, CX
	JGE  quaddone
quad4loop:
	VMOVUPD (DI)(AX*8), Y0
	RANK4(R8, Y8)
	RANK4(R9, Y9)
	RANK4(R10, Y10)
	RANK4(R11, Y11)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  quad4loop
quaddone:
	VZEROUPPER
	RET

// func axpy8Asm(c *[8]float64, x *float64, stride int, y *float64, n int)
// y[j] = y[j] + c0·x[j] + c1·x[stride+j] + … + c7·x[7·stride+j], left to
// right.
TEXT ·axpy8Asm(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), SI
	VBROADCASTSD (SI), Y8
	VBROADCASTSD 8(SI), Y9
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VBROADCASTSD 32(SI), Y12
	VBROADCASTSD 40(SI), Y13
	VBROADCASTSD 48(SI), Y14
	VBROADCASTSD 56(SI), Y15
	MOVQ x+8(FP), R8
	MOVQ stride+16(FP), BX
	SHLQ $3, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	MOVQ y+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ CX, SI
	ANDQ $-16, SI
	XORQ AX, AX
	CMPQ AX, SI
	JGE  oct4
oct16:
	LOAD16(DI)
	RANK16(R8, Y8)
	RANK16(R9, Y9)
	RANK16(R10, Y10)
	RANK16(R11, Y11)
	RANK16(R12, Y12)
	RANK16(R13, Y13)
	RANK16(DX, Y14)
	RANK16(BX, Y15)
	STORE16(DI)
	ADDQ $16, AX
	CMPQ AX, SI
	JLT  oct16
oct4:
	CMPQ AX, CX
	JGE  octdone
oct4loop:
	VMOVUPD (DI)(AX*8), Y0
	RANK4(R8, Y8)
	RANK4(R9, Y9)
	RANK4(R10, Y10)
	RANK4(R11, Y11)
	RANK4(R12, Y12)
	RANK4(R13, Y13)
	RANK4(DX, Y14)
	RANK4(BX, Y15)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  oct4loop
octdone:
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
