#include "textflag.h"

// transposeAVX512 makes transpose64's six rounds of block swaps on a
// matrix held in eight ZMM registers, Z0–Z7, row 8i + l in lane l of Zi.
// A round of size j swaps, for every row k with bit j clear, the bits of
// row k at the columns with bit j set with the bits of row k + j at the
// columns with bit j clear:
//
//	t = ((x >> j) ^ y) & m      VPSRLQ, VPTERNLOGQ $0x28
//	y ^= t                      VPXORQ
//	x ^= t << j                 VPSLLQ, VPXORQ
//
// with x holding row k and y row k + j in the same lane, and m the mask
// of transpose64's round. Rounds 32, 16 and 8 pair whole registers.
// Rounds 4, 2 and 1 pair rows of one register; each first regroups a
// pair of registers (Zi, Zi+1) so that x and y are again two registers
// with the partner rows in the same lanes, and the regroups are undone
// before the rows are stored. The swaps touch each bit as
// transpose64 does, so the result is the same matrix; there is no
// floating point.

DATA transposeMasks<>+0(SB)/8, $0x00000000ffffffff
DATA transposeMasks<>+8(SB)/8, $0x0000ffff0000ffff
DATA transposeMasks<>+16(SB)/8, $0x00ff00ff00ff00ff
DATA transposeMasks<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA transposeMasks<>+32(SB)/8, $0x3333333333333333
DATA transposeMasks<>+40(SB)/8, $0x5555555555555555
GLOBL transposeMasks<>(SB), RODATA|NOPTR, $48

// SWAP(x, y, j, m, t) makes one block swap of size j between the rows
// in x and their partners in y, with t as scratch.
#define SWAP(x, y, j, m, t) \
	VPSRLQ     $j, x, t;    \
	VPTERNLOGQ $0x28, m, y, t; \
	VPXORQ     t, y, y;     \
	VPSLLQ     $j, t, t;    \
	VPXORQ     t, x, x

// INNER(a, b) makes rounds 4, 2 and 1 on the sixteen rows of a and b,
// a holding rows r…r+7 and b rows r+8…r+15 (chunk c of a register is
// its lanes 2c and 2c+1):
//
//	round 4: Z8 = (a.c0 a.c1 b.c0 b.c1), Z9 = (a.c2 a.c3 b.c2 b.c3)     VSHUFI64X2 $0x44, $0xEE
//	round 2: a = (Z8.c0 Z8.c2 Z9.c0 Z9.c2), b = (Z8.c1 Z8.c3 Z9.c1 Z9.c3) VSHUFI64X2 $0x88, $0xDD
//	round 1: Z8 = the even lanes of a and b, Z9 the odd ones             VPUNPCKLQDQ, VPUNPCKHQDQ
//
// then undoes the three regroups: an unpack pair takes the rows back to
// round 2's grouping, and two shuffle pairs to the order they were
// loaded in.
#define INNER(a, b) \
	VSHUFI64X2  $0x44, b, a, Z8;   \
	VSHUFI64X2  $0xEE, b, a, Z9;   \
	SWAP(Z8, Z9, 4, Z27, Z16);     \
	VSHUFI64X2  $0x88, Z9, Z8, a;  \
	VSHUFI64X2  $0xDD, Z9, Z8, b;  \
	SWAP(a, b, 2, Z28, Z16);       \
	VPUNPCKLQDQ b, a, Z8;          \
	VPUNPCKHQDQ b, a, Z9;          \
	SWAP(Z8, Z9, 1, Z29, Z16);     \
	VPUNPCKLQDQ Z9, Z8, a;         \
	VPUNPCKHQDQ Z9, Z8, b;         \
	VSHUFI64X2  $0x44, b, a, Z8;   \
	VSHUFI64X2  $0xEE, b, a, Z9;   \
	VSHUFI64X2  $0x88, Z9, Z8, a;  \
	VSHUFI64X2  $0xDD, Z9, Z8, b

// func transposeAVX512(a *[64]uint64)
TEXT ·transposeAVX512(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI

	VPBROADCASTQ transposeMasks<>+0(SB), Z24
	VPBROADCASTQ transposeMasks<>+8(SB), Z25
	VPBROADCASTQ transposeMasks<>+16(SB), Z26
	VPBROADCASTQ transposeMasks<>+24(SB), Z27
	VPBROADCASTQ transposeMasks<>+32(SB), Z28
	VPBROADCASTQ transposeMasks<>+40(SB), Z29

	VMOVDQU64 0(DI), Z0
	VMOVDQU64 64(DI), Z1
	VMOVDQU64 128(DI), Z2
	VMOVDQU64 192(DI), Z3
	VMOVDQU64 256(DI), Z4
	VMOVDQU64 320(DI), Z5
	VMOVDQU64 384(DI), Z6
	VMOVDQU64 448(DI), Z7

	// Round 32: rows 8i + l and 8(i+4) + l.
	SWAP(Z0, Z4, 32, Z24, Z16)
	SWAP(Z1, Z5, 32, Z24, Z17)
	SWAP(Z2, Z6, 32, Z24, Z18)
	SWAP(Z3, Z7, 32, Z24, Z19)

	// Round 16: rows 8i + l and 8(i+2) + l.
	SWAP(Z0, Z2, 16, Z25, Z16)
	SWAP(Z1, Z3, 16, Z25, Z17)
	SWAP(Z4, Z6, 16, Z25, Z18)
	SWAP(Z5, Z7, 16, Z25, Z19)

	// Round 8: rows 8i + l and 8(i+1) + l.
	SWAP(Z0, Z1, 8, Z26, Z16)
	SWAP(Z2, Z3, 8, Z26, Z17)
	SWAP(Z4, Z5, 8, Z26, Z18)
	SWAP(Z6, Z7, 8, Z26, Z19)

	// Rounds 4, 2 and 1, sixteen rows at a time.
	INNER(Z0, Z1)
	INNER(Z2, Z3)
	INNER(Z4, Z5)
	INNER(Z6, Z7)

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VMOVDQU64 Z4, 256(DI)
	VMOVDQU64 Z5, 320(DI)
	VMOVDQU64 Z6, 384(DI)
	VMOVDQU64 Z7, 448(DI)
	VZEROUPPER
	RET
