// AVX-512 kernels for the fused path (amd64). Plan 9 assembler syntax.
//
// The same five primitives as simd_amd64.s, on ZMM registers: every
// routine requires len(x) > 0 and len(x) % 8 == 0 (the Go wrappers in
// simd_amd64.go split off the scalar tail), equal slice lengths, and a host
// that passed the AVX-512 probe (useAVX512).
//
// Loops take 16 rows per iteration as two 8-row ZMM groups, and an 8-row
// tail finishes a length that is not a multiple of 16. Accumulating
// routines keep TWO independent chains per quantity — rows 0-7 of each
// iteration into chain 0, rows 8-15 into chain 1, the tail into chain 0 —
// so 16 rows share one FMA latency where a single chain would wait once
// per 8 rows. The chains are added lane-wise and collapsed with one
// horizontal reduction at the end: one more reassociation of the reference
// sums (sixteen partial sums), covered by the kernel package's documented
// ulp bound and run explicitly by the differential suite. Rotation
// application avoids FMA (VMULPD/VADDPD/VSUBPD only), so applied columns
// stay bit-identical to Rotation.Apply.

#include "textflag.h"

// ROTZ rotates one 8-row group with c in Z0 and s in Z1, mul/add only:
// xr = c*x - s*y, yr = s*x + c*y. t is a scratch register.
#define ROTZ(x, y, xr, yr, t) \
	VMULPD Z0, x, xr; \
	VMULPD Z1, y, t;  \
	VSUBPD t, xr, xr; \
	VMULPD Z1, x, yr; \
	VMULPD Z0, y, t;  \
	VADDPD t, yr, yr

// HSUMZ collapses the eight lanes of z (whose low halves are y and x) into
// x lane 0. yt and xt are scratch registers.
#define HSUMZ(z, y, x, yt, xt) \
	VEXTRACTF64X4 $1, z, yt; \
	VADDPD        yt, y, y;  \
	VEXTRACTF128  $1, y, xt; \
	VADDPD        xt, x, x;  \
	VHADDPD       x, x, x

// func sqNormAVX512(x []float64) float64
TEXT ·sqNormAVX512(SB), NOSPLIT, $0-32
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX                  // 16-row prefix
	VXORPD Z4, Z4, Z4                // chain 0
	VXORPD Z5, Z5, Z5                // chain 1
	JZ     sq16tail

sq16loop:
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     64(SI)(AX*8), Z3
	VFMADD231PD Z2, Z2, Z4
	VFMADD231PD Z3, Z3, Z5
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          sq16loop

sq16tail:
	CMPQ        AX, CX
	JGE         sq16done
	VMOVUPD     (SI)(AX*8), Z2
	VFMADD231PD Z2, Z2, Z4

sq16done:
	VADDPD Z5, Z4, Z4
	HSUMZ(Z4, Y4, X4, Y5, X5)
	VZEROUPPER
	MOVSD  X4, ret+24(FP)
	RET

// func gammaDotAVX512(x, y []float64) float64
TEXT ·gammaDotAVX512(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	VXORPD Z4, Z4, Z4                // chain 0
	VXORPD Z5, Z5, Z5                // chain 1
	JZ     gd16tail

gd16loop:
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	VFMADD231PD Z2, Z3, Z4
	VMOVUPD     64(SI)(AX*8), Z6
	VMOVUPD     64(DI)(AX*8), Z7
	VFMADD231PD Z6, Z7, Z5
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          gd16loop

gd16tail:
	CMPQ        AX, CX
	JGE         gd16done
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	VFMADD231PD Z2, Z3, Z4

gd16done:
	VADDPD Z5, Z4, Z4
	HSUMZ(Z4, Y4, X4, Y5, X5)
	VZEROUPPER
	MOVSD  X4, ret+48(FP)
	RET

// func applyPairAVX512(c, s float64, x, y []float64)
TEXT ·applyPairAVX512(SB), NOSPLIT, $0-64
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           ap16tail

ap16loop:
	VMOVUPD (SI)(AX*8), Z2
	VMOVUPD (DI)(AX*8), Z3
	VMOVUPD 64(SI)(AX*8), Z12
	VMOVUPD 64(DI)(AX*8), Z13
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	ROTZ(Z12, Z13, Z17, Z18, Z19)
	VMOVUPD Z7, (SI)(AX*8)
	VMOVUPD Z8, (DI)(AX*8)
	VMOVUPD Z17, 64(SI)(AX*8)
	VMOVUPD Z18, 64(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JL      ap16loop

ap16tail:
	CMPQ    AX, CX
	JGE     ap16done
	VMOVUPD (SI)(AX*8), Z2
	VMOVUPD (DI)(AX*8), Z3
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	VMOVUPD Z7, (SI)(AX*8)
	VMOVUPD Z8, (DI)(AX*8)

ap16done:
	VZEROUPPER
	RET

// func rotateGramAVX512(c, s float64, x, y []float64) (a, b float64)
TEXT ·rotateGramAVX512(SB), NOSPLIT, $0-80
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	VXORPD       Z4, Z4, Z4          // a, chain 0
	VXORPD       Z5, Z5, Z5          // b, chain 0
	VXORPD       Z14, Z14, Z14       // a, chain 1
	VXORPD       Z15, Z15, Z15       // b, chain 1
	JZ           rg16tail

rg16loop:
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	VMOVUPD     64(SI)(AX*8), Z12
	VMOVUPD     64(DI)(AX*8), Z13
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	ROTZ(Z12, Z13, Z17, Z18, Z19)
	VMOVUPD     Z7, (SI)(AX*8)
	VMOVUPD     Z8, (DI)(AX*8)
	VMOVUPD     Z17, 64(SI)(AX*8)
	VMOVUPD     Z18, 64(DI)(AX*8)
	VFMADD231PD Z7, Z7, Z4           // a += xr*xr
	VFMADD231PD Z8, Z8, Z5           // b += yr*yr
	VFMADD231PD Z17, Z17, Z14
	VFMADD231PD Z18, Z18, Z15
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          rg16loop

rg16tail:
	CMPQ        AX, CX
	JGE         rg16done
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	VMOVUPD     Z7, (SI)(AX*8)
	VMOVUPD     Z8, (DI)(AX*8)
	VFMADD231PD Z7, Z7, Z4
	VFMADD231PD Z8, Z8, Z5

rg16done:
	VADDPD Z14, Z4, Z4
	VADDPD Z15, Z5, Z5
	HSUMZ(Z4, Y4, X4, Y7, X7)
	HSUMZ(Z5, Y5, X5, Y7, X7)
	VZEROUPPER
	MOVSD  X4, a+64(FP)
	MOVSD  X5, b+72(FP)
	RET

// func rotateGramNextAVX512(c, s float64, x, y, yn []float64) (a, b, gam float64)
TEXT ·rotateGramNextAVX512(SB), NOSPLIT, $0-112
	VBROADCASTSD c+0(FP), Z0
	VBROADCASTSD s+8(FP), Z1
	MOVQ         x_base+16(FP), SI
	MOVQ         y_base+40(FP), DI
	MOVQ         yn_base+64(FP), BX
	MOVQ         x_len+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	VXORPD       Z4, Z4, Z4          // a, chain 0
	VXORPD       Z5, Z5, Z5          // b, chain 0
	VXORPD       Z6, Z6, Z6          // g, chain 0
	VXORPD       Z14, Z14, Z14       // a, chain 1
	VXORPD       Z15, Z15, Z15       // b, chain 1
	VXORPD       Z16, Z16, Z16       // g, chain 1
	JZ           rgn16tail

rgn16loop:
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	VMOVUPD     64(SI)(AX*8), Z12
	VMOVUPD     64(DI)(AX*8), Z13
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	ROTZ(Z12, Z13, Z17, Z18, Z19)
	VMOVUPD     Z7, (SI)(AX*8)
	VMOVUPD     Z8, (DI)(AX*8)
	VMOVUPD     Z17, 64(SI)(AX*8)
	VMOVUPD     Z18, 64(DI)(AX*8)
	VMOVUPD     (BX)(AX*8), Z9       // ynext
	VMOVUPD     64(BX)(AX*8), Z19
	VFMADD231PD Z7, Z7, Z4           // a += xr*xr
	VFMADD231PD Z8, Z8, Z5           // b += yr*yr
	VFMADD231PD Z7, Z9, Z6           // g += xr*yn
	VFMADD231PD Z17, Z17, Z14
	VFMADD231PD Z18, Z18, Z15
	VFMADD231PD Z17, Z19, Z16
	ADDQ        $16, AX
	CMPQ        AX, DX
	JL          rgn16loop

rgn16tail:
	CMPQ        AX, CX
	JGE         rgn16done
	VMOVUPD     (SI)(AX*8), Z2
	VMOVUPD     (DI)(AX*8), Z3
	ROTZ(Z2, Z3, Z7, Z8, Z9)
	VMOVUPD     Z7, (SI)(AX*8)
	VMOVUPD     Z8, (DI)(AX*8)
	VMOVUPD     (BX)(AX*8), Z9
	VFMADD231PD Z7, Z7, Z4
	VFMADD231PD Z8, Z8, Z5
	VFMADD231PD Z7, Z9, Z6

rgn16done:
	VADDPD Z14, Z4, Z4
	VADDPD Z15, Z5, Z5
	VADDPD Z16, Z6, Z6
	HSUMZ(Z4, Y4, X4, Y7, X7)
	HSUMZ(Z5, Y5, X5, Y7, X7)
	HSUMZ(Z6, Y6, X6, Y7, X7)
	VZEROUPPER
	MOVSD  X4, a+88(FP)
	MOVSD  X5, b+96(FP)
	MOVSD  X6, gam+104(FP)
	RET
