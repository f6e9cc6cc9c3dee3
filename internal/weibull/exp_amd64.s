#include "textflag.h"

// The constants of archExp, Go's amd64 math.Exp
// ($GOROOT/src/math/exp_amd64.s), written as it writes them so that
// they assemble to the same float64s, then the integer bounds of the
// range check.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920                 // LOG2E
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375          // LN2U
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $1023 // exponent bias
DATA expconst<>+112(SB)/8, $2046 // largest biased exponent of a normal
GLOBL expconst<>(SB), RODATA|NOPTR, $120

// STEP2 issues one step of archExp for both 8-lane chains, so the two
// chains' dependent steps interleave.
#define STEP2(op, a1, b1, c1, a2, b2, c2) \
	op a1, b1, c1; \
	op a2, b2, c2

// expAVX512 runs archExp's FMA path on 16 values per iteration, as two
// 8-lane chains (Z0–Z4 and Z5–Z9): the same operations in the same
// order, lane by lane, so every lane rounds as the scalar code does.
// K1 and K2 hold each chain's active lanes, K3 and K4 those whose
// k + 1023 lies in [1, 2046], the range in which archExp returns
// through that path.
//
// func expAVX512(dst, x *float64, n int, a float64) bool
TEXT ·expAVX512(SB), NOSPLIT, $0-33
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Z16
	LEAQ         expconst<>(SB), AX
	VBROADCASTSD 0(AX), Z17   // LOG2E
	VBROADCASTSD 8(AX), Z18   // LN2U
	VBROADCASTSD 16(AX), Z19  // LN2L
	VBROADCASTSD 24(AX), Z20  // 0.0625
	VBROADCASTSD 32(AX), Z21  // Taylor coefficients, highest order first
	VBROADCASTSD 40(AX), Z22
	VBROADCASTSD 48(AX), Z23
	VBROADCASTSD 56(AX), Z24
	VBROADCASTSD 64(AX), Z25
	VBROADCASTSD 72(AX), Z26
	VBROADCASTSD 80(AX), Z27  // 0.5
	VBROADCASTSD 88(AX), Z28  // 1.0
	VBROADCASTSD 96(AX), Z29  // 2.0
	VPBROADCASTQ 104(AX), Z30 // 1023
	VPBROADCASTQ 112(AX), Z31 // 2046
	VPXORQ       Z15, Z15, Z15
	MOVL         $0xff, R8

loop:
	// Lanes 0–7 of the next 16 values in K1, lanes 8–15 in K2.
	TESTQ CX, CX
	JLE   done
	CMPQ  CX, $16
	JAE   full
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	MOVL  AX, BX
	ANDL  $0xff, AX
	SHRL  $8, BX
	KMOVW AX, K1
	KMOVW BX, K2
	JMP   body

full:
	KMOVW R8, K1
	KMOVW R8, K2

body:
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z 64(SI), K2, Z5

	// x = a·l, then x·LOG2E.
	STEP2(VMULPD, Z16, Z0, Z0, Z16, Z5, Z5)
	STEP2(VMULPD, Z17, Z0, Z1, Z17, Z5, Z6)

	// k = round-to-even(x·LOG2E), as CVTSD2SL, and back.
	VCVTPD2DQ Z1, Y2
	VCVTPD2DQ Z6, Y7
	VCVTDQ2PD Y2, Z1
	VCVTDQ2PD Y7, Z6

	// x −= k·LN2U, x −= k·LN2L, each fused; then x·0.0625.
	STEP2(VFNMADD231PD, Z18, Z1, Z0, Z18, Z6, Z5)
	STEP2(VFNMADD231PD, Z19, Z1, Z0, Z19, Z6, Z5)
	STEP2(VMULPD, Z20, Z0, Z0, Z20, Z5, Z5)

	// The seven fused Taylor steps p = x·p + c, then x·p.
	VMOVAPD Z21, Z3
	VMOVAPD Z21, Z8
	STEP2(VFMADD213PD, Z22, Z0, Z3, Z22, Z5, Z8)
	STEP2(VFMADD213PD, Z23, Z0, Z3, Z23, Z5, Z8)
	STEP2(VFMADD213PD, Z24, Z0, Z3, Z24, Z5, Z8)
	STEP2(VFMADD213PD, Z25, Z0, Z3, Z25, Z5, Z8)
	STEP2(VFMADD213PD, Z26, Z0, Z3, Z26, Z5, Z8)
	STEP2(VFMADD213PD, Z27, Z0, Z3, Z27, Z5, Z8)
	STEP2(VFMADD213PD, Z28, Z0, Z3, Z28, Z5, Z8)
	STEP2(VMULPD, Z3, Z0, Z0, Z8, Z5, Z5)

	// Three squarings x = x·(x + 2), then the fused (x + 2)·x + 1.
	STEP2(VADDPD, Z29, Z0, Z3, Z29, Z5, Z8)
	STEP2(VMULPD, Z3, Z0, Z0, Z8, Z5, Z5)
	STEP2(VADDPD, Z29, Z0, Z3, Z29, Z5, Z8)
	STEP2(VMULPD, Z3, Z0, Z0, Z8, Z5, Z5)
	STEP2(VADDPD, Z29, Z0, Z3, Z29, Z5, Z8)
	STEP2(VMULPD, Z3, Z0, Z0, Z8, Z5, Z5)
	STEP2(VADDPD, Z29, Z0, Z3, Z29, Z5, Z8)
	STEP2(VFMADD213PD, Z28, Z3, Z0, Z28, Z8, Z5)

	// e = k + 1023; the lanes with 1 ≤ e ≤ 2046 go to K3 and K4.
	VPMOVSXDQ Y2, Z4
	VPMOVSXDQ Y7, Z9
	STEP2(VPADDQ, Z30, Z4, Z4, Z30, Z9, Z9)
	VPCMPQ    $6, Z15, Z4, K1, K3 // e > 0
	VPCMPQ    $6, Z15, Z9, K2, K4
	VPCMPQ    $2, Z31, Z4, K3, K3 // e ≤ 2046
	VPCMPQ    $2, Z31, Z9, K4, K4

	// x·2^k, with 2^k built from its bits e<<52.
	VPSLLQ $52, Z4, Z4
	VPSLLQ $52, Z9, Z9
	STEP2(VMULPD, Z4, Z0, Z0, Z9, Z5, Z5)
	VMOVUPD Z0, K1, (DI)
	VMOVUPD Z5, K2, 64(DI)

	// Any active lane outside the range fails the sweep.
	KXORW    K3, K1, K5
	KXORW    K4, K2, K6
	KORW     K5, K6, K5
	KORTESTW K5, K5
	JNZ      fail

	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  loop

done:
	MOVB $1, ret+32(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ret+32(FP)
	VZEROUPPER
	RET
