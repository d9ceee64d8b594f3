// AVX2/FMA kernels for the fused path (amd64). Plan 9 assembler syntax.
//
// Every routine requires: len(x) > 0 and len(x) % 4 == 0 (the Go wrappers
// in simd_amd64.go split off the scalar tail), equal slice lengths, and a
// host with AVX2+FMA (wrappers dispatch on the cpuid probe). The AVX-512
// arm of the same primitives lives in simd_avx512_amd64.s.
//
// Accumulating routines keep TWO independent YMM chains per quantity: the
// main loop takes 8 rows per iteration, rows 0-3 into chain 0 and rows 4-7
// into chain 1, and a 4-row tail folds into chain 0. A single chain would
// make every 4 rows wait on one FMA latency (4 cycles) — the skip path's
// norm and gamma dots measured exactly that, one cycle per row. The chains
// are added lane-wise and collapsed with one horizontal reduction at the
// end: a reassociation of the reference sums, covered by the kernel
// package's documented ulp bound. Rotation application deliberately avoids
// FMA (VMULPD/VADDPD/VSUBPD only): per element it performs exactly the
// reference arithmetic, so applied columns stay bit-identical to
// Rotation.Apply given identical inputs.

#include "textflag.h"

// ROTY rotates one 4-row group with c in Y0 and s in Y1, mul/add only:
// xr = c*x - s*y, yr = s*x + c*y. t is a scratch register.
#define ROTY(x, y, xr, yr, t) \
	VMULPD Y0, x, xr; \
	VMULPD Y1, y, t;  \
	VSUBPD t, xr, xr; \
	VMULPD Y1, x, yr; \
	VMULPD Y0, y, t;  \
	VADDPD t, yr, yr

// HSUMY collapses the four lanes of y (whose low half is x) into x lane 0.
// xt is a scratch register.
#define HSUMY(y, x, xt) \
	VEXTRACTF128 $1, y, xt; \
	VADDPD       xt, x, x;  \
	VHADDPD      x, x, x

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func sqNormAVX(x []float64) float64
TEXT ·sqNormAVX(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX                   // 8-row prefix
	VXORPD Y4, Y4, Y4                // chain 0
	VXORPD Y5, Y5, Y5                // chain 1
	JZ     sqtail

sqloop:
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     32(SI)(AX*8), Y3
	VFMADD231PD Y2, Y2, Y4
	VFMADD231PD Y3, Y3, Y5
	ADDQ        $8, AX
	CMPQ        AX, DX
	JL          sqloop

sqtail:
	CMPQ        AX, CX
	JGE         sqdone
	VMOVUPD     (SI)(AX*8), Y2
	VFMADD231PD Y2, Y2, Y4

sqdone:
	VADDPD Y5, Y4, Y4
	HSUMY(Y4, X4, X5)
	VZEROUPPER
	MOVSD  X4, ret+24(FP)
	RET

// func gammaDotAVX(x, y []float64) float64
TEXT ·gammaDotAVX(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX
	VXORPD Y4, Y4, Y4                // chain 0
	VXORPD Y5, Y5, Y5                // chain 1
	JZ     gdtail

gdloop:
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	VFMADD231PD Y2, Y3, Y4
	VMOVUPD     32(SI)(AX*8), Y6
	VMOVUPD     32(DI)(AX*8), Y7
	VFMADD231PD Y6, Y7, Y5
	ADDQ        $8, AX
	CMPQ        AX, DX
	JL          gdloop

gdtail:
	CMPQ        AX, CX
	JGE         gddone
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	VFMADD231PD Y2, Y3, Y4

gddone:
	VADDPD Y5, Y4, Y4
	HSUMY(Y4, X4, X5)
	VZEROUPPER
	MOVSD  X4, ret+48(FP)
	RET

// func applyPairAVX(c, s float64, x, y []float64)
TEXT ·applyPairAVX(SB), NOSPLIT, $0-64
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX

aploop:
	VMOVUPD (SI)(AX*8), Y2           // x
	VMOVUPD (DI)(AX*8), Y3           // y
	ROTY(Y2, Y3, Y7, Y8, Y9)
	VMOVUPD Y7, (SI)(AX*8)
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      aploop
	VZEROUPPER
	RET

// func rotateGramAVX(c, s float64, x, y []float64) (a, b float64)
TEXT ·rotateGramAVX(SB), NOSPLIT, $0-80
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	VXORPD       Y4, Y4, Y4          // a, chain 0
	VXORPD       Y5, Y5, Y5          // b, chain 0
	VXORPD       Y10, Y10, Y10       // a, chain 1
	VXORPD       Y11, Y11, Y11       // b, chain 1
	JZ           rgtail

rgloop:
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	ROTY(Y2, Y3, Y7, Y8, Y9)
	VMOVUPD     Y7, (SI)(AX*8)
	VMOVUPD     Y8, (DI)(AX*8)
	VFMADD231PD Y7, Y7, Y4           // a += xr*xr
	VFMADD231PD Y8, Y8, Y5           // b += yr*yr
	VMOVUPD     32(SI)(AX*8), Y2
	VMOVUPD     32(DI)(AX*8), Y3
	ROTY(Y2, Y3, Y12, Y13, Y9)
	VMOVUPD     Y12, 32(SI)(AX*8)
	VMOVUPD     Y13, 32(DI)(AX*8)
	VFMADD231PD Y12, Y12, Y10
	VFMADD231PD Y13, Y13, Y11
	ADDQ        $8, AX
	CMPQ        AX, DX
	JL          rgloop

rgtail:
	CMPQ        AX, CX
	JGE         rgdone
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	ROTY(Y2, Y3, Y7, Y8, Y9)
	VMOVUPD     Y7, (SI)(AX*8)
	VMOVUPD     Y8, (DI)(AX*8)
	VFMADD231PD Y7, Y7, Y4
	VFMADD231PD Y8, Y8, Y5

rgdone:
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	HSUMY(Y4, X4, X7)
	HSUMY(Y5, X5, X7)
	VZEROUPPER
	MOVSD  X4, a+64(FP)
	MOVSD  X5, b+72(FP)
	RET

// func rotateGramNextAVX(c, s float64, x, y, yn []float64) (a, b, gam float64)
TEXT ·rotateGramNextAVX(SB), NOSPLIT, $0-112
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         yn_base+64(FP), BX
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	VXORPD       Y4, Y4, Y4          // a, chain 0
	VXORPD       Y5, Y5, Y5          // b, chain 0
	VXORPD       Y6, Y6, Y6          // g, chain 0
	VXORPD       Y10, Y10, Y10       // a, chain 1
	VXORPD       Y11, Y11, Y11       // b, chain 1
	VXORPD       Y14, Y14, Y14       // g, chain 1
	JZ           rgntail

rgnloop:
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	ROTY(Y2, Y3, Y7, Y8, Y9)
	VMOVUPD     Y7, (SI)(AX*8)
	VMOVUPD     Y8, (DI)(AX*8)
	VMOVUPD     (BX)(AX*8), Y9       // ynext
	VFMADD231PD Y7, Y7, Y4           // a += xr*xr
	VFMADD231PD Y8, Y8, Y5           // b += yr*yr
	VFMADD231PD Y7, Y9, Y6           // g += xr*yn
	VMOVUPD     32(SI)(AX*8), Y2
	VMOVUPD     32(DI)(AX*8), Y3
	ROTY(Y2, Y3, Y12, Y13, Y9)
	VMOVUPD     Y12, 32(SI)(AX*8)
	VMOVUPD     Y13, 32(DI)(AX*8)
	VMOVUPD     32(BX)(AX*8), Y9
	VFMADD231PD Y12, Y12, Y10
	VFMADD231PD Y13, Y13, Y11
	VFMADD231PD Y12, Y9, Y14
	ADDQ        $8, AX
	CMPQ        AX, DX
	JL          rgnloop

rgntail:
	CMPQ        AX, CX
	JGE         rgndone
	VMOVUPD     (SI)(AX*8), Y2
	VMOVUPD     (DI)(AX*8), Y3
	ROTY(Y2, Y3, Y7, Y8, Y9)
	VMOVUPD     Y7, (SI)(AX*8)
	VMOVUPD     Y8, (DI)(AX*8)
	VMOVUPD     (BX)(AX*8), Y9
	VFMADD231PD Y7, Y7, Y4
	VFMADD231PD Y8, Y8, Y5
	VFMADD231PD Y7, Y9, Y6

rgndone:
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VADDPD Y14, Y6, Y6
	HSUMY(Y4, X4, X7)
	HSUMY(Y5, X5, X7)
	HSUMY(Y6, X6, X7)
	VZEROUPPER
	MOVSD  X4, a+88(FP)
	MOVSD  X5, b+96(FP)
	MOVSD  X6, gam+104(FP)
	RET
