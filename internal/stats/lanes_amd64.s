#include "textflag.h"

// The Lanes kernel keeps word w of the eight lanes' states in Zw
// (Z0–Z3) and makes one xoshiro256** step on all eight with AVX-512F
// integer instructions. Each lane's arithmetic is next's, mod 2⁶⁴, so
// every lane's words are the serial generator's bit for bit: the ·5
// and ·9 are a shift and an add, as the compiler's LEAQs compute them,
// and there is no floating point.

// OUT sets Z4 to the eight outputs rotl(s1·5, 7)·9.
#define OUT \
	VPSLLQ $2, Z1, Z4; \
	VPADDQ Z1, Z4, Z4; \
	VPROLQ $7, Z4, Z4; \
	VPSLLQ $3, Z4, Z5; \
	VPADDQ Z5, Z4, Z4

// STATE advances the eight states, clobbering Z5: with t = s1<<17,
// s0 ^= s3 ^ s1, s1 ^= s2 ^ s0, s2 ^= s0 ^ t and s3 = rotl(s3 ^ s1, 45),
// every right-hand side on the old state, which is next's sequence of
// XORs written out.
#define STATE \
	VPSLLQ     $17, Z1, Z5; \
	VPXORQ     Z1, Z3, Z3; \
	VPTERNLOGQ $0x96, Z0, Z2, Z1; \
	VPTERNLOGQ $0x96, Z0, Z5, Z2; \
	VPXORQ     Z3, Z0, Z0; \
	VPROLQ     $45, Z3, Z3

#define LOAD(p) \
	VMOVDQU64 0(p), Z0; \
	VMOVDQU64 64(p), Z1; \
	VMOVDQU64 128(p), Z2; \
	VMOVDQU64 192(p), Z3

#define SAVE(p) \
	VMOVDQU64 Z0, 0(p); \
	VMOVDQU64 Z1, 64(p); \
	VMOVDQU64 Z2, 128(p); \
	VMOVDQU64 Z3, 192(p)

// BIT gathers a Bernoulli draw against the thresholds in Z7 into Z8:
// VPCMPUQ sets K2 for the lanes where k = x>>11 is below the threshold,
// BoolBits' comparison made unsigned, and VPORQ sets the draw's bit,
// held in every lane of Z9, in those lanes; Z9 then moves up one bit.
#define BIT \
	VPSRLQ  $11, Z4, Z4; \
	VPCMPUQ $1, Z7, Z4, K2; \
	VPORQ   Z9, Z8, K2, Z8; \
	VPADDQ  Z9, Z9, Z9

DATA lanesIota<>+0(SB)/8, $0
DATA lanesIota<>+8(SB)/8, $1
DATA lanesIota<>+16(SB)/8, $2
DATA lanesIota<>+24(SB)/8, $3
DATA lanesIota<>+32(SB)/8, $4
DATA lanesIota<>+40(SB)/8, $5
DATA lanesIota<>+48(SB)/8, $6
DATA lanesIota<>+56(SB)/8, $7
GLOBL lanesIota<>(SB), RODATA|NOPTR, $64

// func lanesFill(s *[4][8]uint64, dst *uint64, stride, k int)
TEXT ·lanesFill(SB), NOSPLIT, $0-32
	MOVQ s+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ stride+16(FP), BX
	MOVQ k+24(FP), CX
	LOAD(AX)

	// Z6 = l·stride, lane l's word offset; stride < 2³¹, so the
	// 32×32-bit multiply is exact.
	VPBROADCASTQ BX, Z7
	VPMULUDQ     lanesIota<>(SB), Z7, Z6

fill:
	OUT
	STATE
	KXNORW      K1, K1, K1
	VPSCATTERQQ Z4, K1, (DI)(Z6*8)
	ADDQ        $8, DI
	DECQ        CX
	JNZ         fill

	SAVE(AX)
	VZEROUPPER
	RET

// BITSETUP zeroes the accumulator Z8 and puts bit 0 in every lane of
// Z9.
#define BITSETUP \
	VPXORQ       Z8, Z8, Z8; \
	MOVQ         $1, R8; \
	VPBROADCASTQ R8, Z9

// func lanesBool(s *[4][8]uint64, bits, t *[8]uint64, n int)
TEXT ·lanesBool(SB), NOSPLIT, $0-32
	MOVQ      s+0(FP), AX
	MOVQ      bits+8(FP), DI
	MOVQ      t+16(FP), SI
	MOVQ      n+24(FP), CX
	LOAD(AX)
	VMOVDQU64 (SI), Z7
	BITSETUP
	TESTQ     CX, CX
	JZ        booldone

bool:
	OUT
	STATE
	BIT
	DECQ CX
	JNZ  bool

booldone:
	VMOVDQU64 Z8, (DI)
	SAVE(AX)
	VZEROUPPER
	RET

// func lanesBoolEach(s *[4][8]uint64, bits *[8]uint64, t *uint64, n int)
TEXT ·lanesBoolEach(SB), NOSPLIT, $0-32
	MOVQ  s+0(FP), AX
	MOVQ  bits+8(FP), DI
	MOVQ  t+16(FP), SI
	MOVQ  n+24(FP), CX
	LOAD(AX)
	BITSETUP
	TESTQ CX, CX
	JZ    eachdone

each:
	OUT
	STATE
	VPBROADCASTQ (SI), Z7
	BIT
	ADDQ         $8, SI
	DECQ         CX
	JNZ          each

eachdone:
	VMOVDQU64 Z8, (DI)
	SAVE(AX)
	VZEROUPPER
	RET

// lanesJump is jumpState on eight polynomials at once: the one state
// being walked sits in every lane of Z0–Z3, and at step b it is XORed
// into the accumulators Z12–Z15 of the lanes whose polynomial has
// coefficient b set, the opmask K1 that VPTESTMQ makes from Z10 (64
// coefficients of each lane's polynomial) and Z11 (bit b%64).
//
// func lanesJump(dst *[4][8]uint64, from *[4]uint64, c *[4][8]uint64)
TEXT ·lanesJump(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         from+8(FP), SI
	MOVQ         c+16(FP), DX
	VPBROADCASTQ 0(SI), Z0
	VPBROADCASTQ 8(SI), Z1
	VPBROADCASTQ 16(SI), Z2
	VPBROADCASTQ 24(SI), Z3
	VPXORQ       Z12, Z12, Z12
	VPXORQ       Z13, Z13, Z13
	VPXORQ       Z14, Z14, Z14
	VPXORQ       Z15, Z15, Z15
	MOVQ         $1, AX
	LEAQ         256(DX), R8

jword:
	VMOVDQU64    (DX), Z10
	VPBROADCASTQ AX, Z11
	MOVQ         $64, CX

jbit:
	VPTESTMQ Z11, Z10, K1
	VPXORQ   Z0, Z12, K1, Z12
	VPXORQ   Z1, Z13, K1, Z13
	VPXORQ   Z2, Z14, K1, Z14
	VPXORQ   Z3, Z15, K1, Z15
	STATE
	VPADDQ   Z11, Z11, Z11
	DECQ     CX
	JNZ      jbit
	ADDQ     $64, DX
	CMPQ     DX, R8
	JB       jword

	VMOVDQU64 Z12, 0(DI)
	VMOVDQU64 Z13, 64(DI)
	VMOVDQU64 Z14, 128(DI)
	VMOVDQU64 Z15, 192(DI)
	VZEROUPPER
	RET
