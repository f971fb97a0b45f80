// AVX2 int8 dot kernels for the quantized inference fast path. Both
// kernels compute four dot products at once — one int8/int16 activation row
// against four consecutive rows of a quantized weight pack — via
// sign-extend (VPMOVSXBW) and pairwise multiply-add (VPMADDWD) into four
// int32 accumulator vectors, horizontally reduced at the end. n must be a
// positive multiple of 16; stride is the element distance between
// consecutive weight rows.

#include "textflag.h"

// func dotQuadAsm(x *int8, w *int8, stride, n int, sums *[4]int32)
// sums[r] = Σ_{k<n} x[k]·w[r·stride+k] for r = 0..3.
TEXT ·dotQuadAsm(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ stride+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ sums+32(FP), R9
	MOVQ DI, R10
	LEAQ (DI)(R8*1), R11
	LEAQ (DI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
loop:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (R10)(AX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPMOVSXBW (R11)(AX*1), Y6
	VPMADDWD Y4, Y6, Y6
	VPADDD Y6, Y1, Y1
	VPMOVSXBW (R12)(AX*1), Y7
	VPMADDWD Y4, Y7, Y7
	VPADDD Y7, Y2, Y2
	VPMOVSXBW (R13)(AX*1), Y8
	VPMADDWD Y4, Y8, Y8
	VPADDD Y8, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT loop
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VMOVDQU X0, (R9)
	VZEROUPPER
	RET

// func dotQuadWAsm(x *int16, w *int8, stride, n int, sums *[4]int32)
// Same reduction with an int16 left operand (attention probabilities):
// x loads 16 words directly, w sign-extends 16 bytes.
TEXT ·dotQuadWAsm(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ stride+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ sums+32(FP), R9
	MOVQ DI, R10
	LEAQ (DI)(R8*1), R11
	LEAQ (DI)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
loopw:
	VMOVDQU (SI)(AX*2), Y4
	VPMOVSXBW (R10)(AX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPMOVSXBW (R11)(AX*1), Y6
	VPMADDWD Y4, Y6, Y6
	VPADDD Y6, Y1, Y1
	VPMOVSXBW (R12)(AX*1), Y7
	VPMADDWD Y4, Y7, Y7
	VPADDD Y7, Y2, Y2
	VPMOVSXBW (R13)(AX*1), Y8
	VPMADDWD Y4, Y8, Y8
	VPADDD Y8, Y3, Y3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT loopw
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VMOVDQU X0, (R9)
	VZEROUPPER
	RET

// Broadcast constants for expGridAsm, each replicated across the four
// float64 lanes so they can be used as 256-bit memory operands.
DATA expClamp<>+0(SB)/8, $0xc03e000000000000  // -30.0: below this the grid rounds to 0
DATA expClamp<>+8(SB)/8, $0xc03e000000000000
DATA expClamp<>+16(SB)/8, $0xc03e000000000000
DATA expClamp<>+24(SB)/8, $0xc03e000000000000
GLOBL expClamp<>(SB), RODATA|NOPTR, $32

DATA expLog2e<>+0(SB)/8, $0x3ff71547652b82fe  // log2(e)
DATA expLog2e<>+8(SB)/8, $0x3ff71547652b82fe
DATA expLog2e<>+16(SB)/8, $0x3ff71547652b82fe
DATA expLog2e<>+24(SB)/8, $0x3ff71547652b82fe
GLOBL expLog2e<>(SB), RODATA|NOPTR, $32

DATA expLn2<>+0(SB)/8, $0x3fe62e42fefa39ef  // ln(2)
DATA expLn2<>+8(SB)/8, $0x3fe62e42fefa39ef
DATA expLn2<>+16(SB)/8, $0x3fe62e42fefa39ef
DATA expLn2<>+24(SB)/8, $0x3fe62e42fefa39ef
GLOBL expLn2<>(SB), RODATA|NOPTR, $32

DATA expC6<>+0(SB)/8, $0x3f56c16c16c16c17  // 1/720
DATA expC6<>+8(SB)/8, $0x3f56c16c16c16c17
DATA expC6<>+16(SB)/8, $0x3f56c16c16c16c17
DATA expC6<>+24(SB)/8, $0x3f56c16c16c16c17
GLOBL expC6<>(SB), RODATA|NOPTR, $32

DATA expC5<>+0(SB)/8, $0x3f81111111111111  // 1/120
DATA expC5<>+8(SB)/8, $0x3f81111111111111
DATA expC5<>+16(SB)/8, $0x3f81111111111111
DATA expC5<>+24(SB)/8, $0x3f81111111111111
GLOBL expC5<>(SB), RODATA|NOPTR, $32

DATA expC4<>+0(SB)/8, $0x3fa5555555555555  // 1/24
DATA expC4<>+8(SB)/8, $0x3fa5555555555555
DATA expC4<>+16(SB)/8, $0x3fa5555555555555
DATA expC4<>+24(SB)/8, $0x3fa5555555555555
GLOBL expC4<>(SB), RODATA|NOPTR, $32

DATA expC3<>+0(SB)/8, $0x3fc5555555555555  // 1/6
DATA expC3<>+8(SB)/8, $0x3fc5555555555555
DATA expC3<>+16(SB)/8, $0x3fc5555555555555
DATA expC3<>+24(SB)/8, $0x3fc5555555555555
GLOBL expC3<>(SB), RODATA|NOPTR, $32

DATA expHalf<>+0(SB)/8, $0x3fe0000000000000  // 0.5 (poly c2 and grid rounding)
DATA expHalf<>+8(SB)/8, $0x3fe0000000000000
DATA expHalf<>+16(SB)/8, $0x3fe0000000000000
DATA expHalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL expHalf<>(SB), RODATA|NOPTR, $32

DATA expOne<>+0(SB)/8, $0x3ff0000000000000  // 1.0
DATA expOne<>+8(SB)/8, $0x3ff0000000000000
DATA expOne<>+16(SB)/8, $0x3ff0000000000000
DATA expOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL expOne<>(SB), RODATA|NOPTR, $32

DATA expGrid<>+0(SB)/8, $0x40cfff8000000000  // 16383.0 (quantProbScale)
DATA expGrid<>+8(SB)/8, $0x40cfff8000000000
DATA expGrid<>+16(SB)/8, $0x40cfff8000000000
DATA expGrid<>+24(SB)/8, $0x40cfff8000000000
GLOBL expGrid<>(SB), RODATA|NOPTR, $32

// func expGridAsm(s *float64, n int, maxv float64, pq *int16) int64
// pq[j] = trunc(e^(s[j]-maxv)·16383 + 0.5) for j < n (n a positive multiple
// of 4), returning Σ pq[j]. Four lanes per iteration: clamp the shifted
// argument at -30 (where the grid already rounds to 0, keeping the exponent
// bit-trick far from the subnormal range), split x = k·ln2 + f with VROUNDPD,
// evaluate the same degree-6 polynomial as fastExp on f, reconstruct 2^k by
// adding k to the exponent bits, then scale onto the 14-bit grid and pack to
// int16. The int32 per-lane sums stay far from overflow: n ≤ quantMaxLkv
// and each term ≤ 16383.
TEXT ·expGridAsm(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ pq+24(FP), DI
	VBROADCASTSD maxv+16(FP), Y15
	VPXOR X5, X5, X5
	XORQ AX, AX
loope:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD Y15, Y0, Y0            // x = s - maxv (≤ 0)
	VMAXPD expClamp<>(SB), Y0, Y0 // clamp at -30
	VMULPD expLog2e<>(SB), Y0, Y1
	VROUNDPD $0, Y1, Y1           // k = round-to-nearest(x·log2e)
	VMULPD expLn2<>(SB), Y1, Y3
	VSUBPD Y3, Y0, Y0             // f = x - k·ln2, |f| ≤ ln2/2
	VMULPD expC6<>(SB), Y0, Y2    // Horner: (((((f/720+c5)f+c4)f+c3)f+c2)f+1)f+1
	VADDPD expC5<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD expC4<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD expC3<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD expHalf<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD expOne<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD expOne<>(SB), Y2, Y2
	VCVTPD2DQY Y1, X3             // k as 4×int32
	VPMOVSXDQ X3, Y3              // widen to int64 lanes
	VPSLLQ $52, Y3, Y3
	VPADDQ Y3, Y2, Y2             // e = poly · 2^k via exponent bits
	VMULPD expGrid<>(SB), Y2, Y2
	VADDPD expHalf<>(SB), Y2, Y2
	VCVTTPD2DQY Y2, X2            // trunc → 4×int32 in [0, 16383]
	VPADDD X2, X5, X5
	VPACKSSDW X2, X2, X2
	MOVQ X2, (DI)(AX*2)           // low 8 bytes: the 4 packed int16
	ADDQ $4, AX
	CMPQ AX, CX
	JLT loope
	VPHADDD X5, X5, X5
	VPHADDD X5, X5, X5
	MOVQ X5, AX
	MOVL AX, AX
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
