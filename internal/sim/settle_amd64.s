#include "textflag.h"

// settleAVX512 keeps a slot's aw active words in one ZMM register per
// operand, under K1 = (1 << aw) − 1: every load is zero-masked and every
// store masked, so words past the aw are neither read nor written. A
// two-input slot is evaluated with the same instructions whatever its
// opcode, from the opcode's row (P, X, Q) of settleOps:
//
//	t = (a ^ P) & (b ^ P)       VPTERNLOGQ $0x42
//	r = X ? a ^ b : t           VPXORQ, VPTERNLOGQ $0xD8
//	out = r ^ Q                 VPXORQ
//
// Every output word is the same bitwise function of the same two input
// words as settleGo's case for the opcode, and there is no floating
// point.

// func settleAVX512(v1, v2, d, fab *uint64, fop *uint8, ops *[7][3]uint64, s, n, aw int) int
TEXT ·settleAVX512(SB), NOSPLIT, $0-80
	MOVQ v1+0(FP), DI
	MOVQ v2+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ fab+24(FP), R8
	MOVQ fop+32(FP), R9
	MOVQ ops+40(FP), R10
	MOVQ s+48(FP), BX
	MOVQ n+56(FP), R11
	MOVQ aw+64(FP), CX

	// K1 = (1 << aw) − 1, moved with KMOVW: KMOVB is AVX-512DQ, which
	// internal/cpufeat does not check.
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	MOVQ  CX, R13
	SHLQ  $3, R13    // bytes per slot: aw·8
	MOVQ  BX, R12
	IMULQ R13, R12   // byte offset of slot s

loop:
	CMPQ    BX, R11
	JAE     done
	MOVBQZX (R9)(BX*1), AX
	CMPQ    AX, $6   // fopXnor2
	JA      done     // three or more inputs: Go settles the slot
	TESTQ   AX, AX
	JZ      input

	// Fan-in word offsets: a in the low half of fab, b in the high half.
	MOVQ (R8)(BX*8), R14
	MOVL R14, R15
	SHRQ $32, R14
	LEAQ (AX)(AX*2), AX
	LEAQ (R10)(AX*8), AX // the opcode's row

	VPBROADCASTQ (AX), Z8                // P
	VPBROADCASTQ 8(AX), Z9               // X
	VPBROADCASTQ 16(AX), Z10             // Q
	VMOVDQU64.Z  (DI)(R15*8), K1, Z0     // a, plane 1
	VMOVDQU64.Z  (DI)(R14*8), K1, Z1     // b, plane 1
	VMOVDQU64.Z  (SI)(R15*8), K1, Z2     // a, plane 2
	VMOVDQU64.Z  (SI)(R14*8), K1, Z3     // b, plane 2
	VPXORQ       Z1, Z0, Z4
	VPXORQ       Z3, Z2, Z5
	VPTERNLOGQ   $0x42, Z8, Z1, Z0
	VPTERNLOGQ   $0x42, Z8, Z3, Z2
	VPTERNLOGQ   $0xD8, Z9, Z4, Z0
	VPTERNLOGQ   $0xD8, Z9, Z5, Z2
	VPXORQ       Z10, Z0, Z0
	VPXORQ       Z10, Z2, Z2
	VMOVDQU64    Z0, K1, (DI)(R12*1)
	VMOVDQU64    Z2, K1, (SI)(R12*1)
	TESTQ        DX, DX
	JZ           next
	VPXORQ       Z2, Z0, Z0
	VMOVDQU64    Z0, K1, (DX)(R12*1)

next:
	INCQ BX
	ADDQ R13, R12
	JMP  loop

input:
	// An input slot is loaded already; it only writes d, when asked.
	TESTQ       DX, DX
	JZ          next
	VMOVDQU64.Z (DI)(R12*1), K1, Z0
	VMOVDQU64.Z (SI)(R12*1), K1, Z2
	VPXORQ      Z2, Z0, Z0
	VMOVDQU64   Z0, K1, (DX)(R12*1)
	JMP         next

done:
	MOVQ BX, ret+72(FP)
	VZEROUPPER
	RET
