#include "textflag.h"

// The constants of archLog, Go's amd64 math.Log
// ($GOROOT/src/math/log_amd64.s), written as it writes them so that
// they assemble to the same float64s, then the integer masks and
// bounds of its Frexp and its special-case tests.
DATA logconst<>+0(SB)/8, $7.07106781186547524401e-01 // HSqrt2
DATA logconst<>+8(SB)/8, $6.93147180369123816490e-01 // Ln2Hi
DATA logconst<>+16(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
DATA logconst<>+24(SB)/8, $6.666666666666735130e-01 // L1
DATA logconst<>+32(SB)/8, $3.999999999940941908e-01 // L2
DATA logconst<>+40(SB)/8, $2.857142874366239149e-01 // L3
DATA logconst<>+48(SB)/8, $2.222219843214978396e-01 // L4
DATA logconst<>+56(SB)/8, $1.818357216161805012e-01 // L5
DATA logconst<>+64(SB)/8, $1.531383769920937332e-01 // L6
DATA logconst<>+72(SB)/8, $1.479819860511658591e-01 // L7
DATA logconst<>+80(SB)/8, $0.5
DATA logconst<>+88(SB)/8, $1.0
DATA logconst<>+96(SB)/8, $2.0
DATA logconst<>+104(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA logconst<>+112(SB)/8, $0x7FF // exponent field
DATA logconst<>+120(SB)/8, $0x3FE // Frexp's exponent bias
DATA logconst<>+128(SB)/8, $0x7FF0000000000000 // bits of +Inf
GLOBL logconst<>(SB), RODATA|NOPTR, $136

// logAVX512 runs archLog's main path on 8 values per iteration: the
// same operations in the same order, lane by lane, so every lane
// rounds as the scalar code does. K1 holds the active lanes, K3 those
// whose bits, read as int64, lie in (0, +Inf bits): the inputs on
// which archLog takes that path.
//
// func logAVX512(dst, x *float64, n int) bool
TEXT ·logAVX512(SB), NOSPLIT, $0-25
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	LEAQ         logconst<>(SB), AX
	VBROADCASTSD 0(AX), Z20   // HSqrt2
	VBROADCASTSD 8(AX), Z21   // Ln2Hi
	VBROADCASTSD 16(AX), Z22  // Ln2Lo
	VBROADCASTSD 24(AX), Z23  // L1–L7
	VBROADCASTSD 32(AX), Z24
	VBROADCASTSD 40(AX), Z25
	VBROADCASTSD 48(AX), Z26
	VBROADCASTSD 56(AX), Z27
	VBROADCASTSD 64(AX), Z28
	VBROADCASTSD 72(AX), Z29
	VBROADCASTSD 80(AX), Z17  // 0.5, also its bits for Frexp
	VBROADCASTSD 88(AX), Z18  // 1.0
	VBROADCASTSD 96(AX), Z19  // 2.0
	VPBROADCASTQ 104(AX), Z16 // mantissa mask
	VPBROADCASTQ 112(AX), Z30 // 0x7FF
	VPBROADCASTQ 120(AX), Z31 // 0x3FE
	VPBROADCASTQ 128(AX), Z15 // +Inf bits
	VPXORQ       Z14, Z14, Z14
	MOVL         $0xff, R8

loop:
	TESTQ CX, CX
	JLE   done
	CMPQ  CX, $8
	JAE   full
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	JMP   body

full:
	KMOVW R8, K1

body:
	VMOVUPD.Z (SI), K1, Z0

	// archLog's special branches take bits ≤ 0 (±0, negatives) and
	// bits ≥ +Inf's (+Inf, NaN); any active lane there fails the call.
	VPCMPQ   $6, Z14, Z0, K1, K3 // bits > 0
	VPCMPQ   $1, Z15, Z0, K3, K3 // bits < +Inf bits
	KXORW    K3, K1, K4
	KORTESTW K4, K4
	JNZ      fail

	// f1 = bits & mantissa | bits(0.5); k = (bits>>52 & 0x7FF) − 0x3FE,
	// as an int32 converted to float64, as CVTSL2SD converts it.
	VPANDQ    Z16, Z0, Z2
	VPORQ     Z17, Z2, Z2
	VPSRLQ    $52, Z0, Z1
	VPANDQ    Z30, Z1, Z1
	VPSUBQ    Z31, Z1, Z1
	VPMOVQD   Z1, Y1
	VCVTDQ2PD Y1, Z1

	// CMPSD $5: where !(HSqrt2 < f1), k −= 1 and f1 ×= 2, through the
	// 0-or-1 and the 1-or-2 archLog forms; then f = f1 − 1.
	VCMPPD    $5, Z2, Z20, K2
	VMOVAPD.Z Z18, K2, Z3
	VSUBPD    Z3, Z1, Z1
	VADDPD    Z18, Z3, Z3
	VMULPD    Z3, Z2, Z2
	VSUBPD    Z18, Z2, Z2

	// s = f/(2 + f), s2 = s·s, s4 = s2·s2.
	VADDPD Z2, Z19, Z0
	VDIVPD Z0, Z2, Z3
	VMULPD Z3, Z3, Z4
	VMULPD Z4, Z4, Z5

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))).
	VMULPD Z5, Z29, Z6
	VADDPD Z27, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z25, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z23, Z6, Z6
	VMULPD Z6, Z4, Z4

	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2.
	VMULPD Z5, Z28, Z6
	VADDPD Z26, Z6, Z6
	VMULPD Z5, Z6, Z6
	VADDPD Z24, Z6, Z6
	VMULPD Z6, Z5, Z5
	VADDPD Z5, Z4, Z4

	// hfsq = 0.5·f·f, then
	// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f).
	VMULPD Z2, Z17, Z0
	VMULPD Z2, Z0, Z0
	VADDPD Z0, Z4, Z4
	VMULPD Z4, Z3, Z3
	VMULPD Z1, Z22, Z4
	VADDPD Z4, Z3, Z3
	VSUBPD Z3, Z0, Z0
	VSUBPD Z2, Z0, Z0
	VMULPD Z21, Z1, Z1
	VSUBPD Z0, Z1, Z1
	VMOVUPD Z1, K1, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  loop

done:
	MOVB $1, ret+24(FP)
	VZEROUPPER
	RET

fail:
	MOVB $0, ret+24(FP)
	VZEROUPPER
	RET
