#include "textflag.h"

// FOLD64 adds the energy broadcast in ze to the 64 accumulator lanes at
// R12, under the lane mask in R11. Each 8-lane chunk is a load, one
// VADDPD merge-masked by that chunk's mask byte (lanes outside the mask
// keep their value) and a store: every lane in the mask gets exactly the
// one scalar add the Go fold makes, acc + e, with nothing fused or
// reordered. K1 is reused for the last chunk once the first has read it.
#define FOLD64(ze) \
	KMOVQ    R11, K1; \
	KSHIFTRQ $8, K1, K2; \
	KSHIFTRQ $16, K1, K3; \
	KSHIFTRQ $24, K1, K4; \
	KSHIFTRQ $32, K1, K5; \
	KSHIFTRQ $40, K1, K6; \
	KSHIFTRQ $48, K1, K7; \
	VMOVUPD  (R12), Z4; \
	VADDPD   ze, Z4, K1, Z4; \
	VMOVUPD  Z4, (R12); \
	KSHIFTRQ $56, K1, K1; \
	VMOVUPD  64(R12), Z5; \
	VADDPD   ze, Z5, K2, Z5; \
	VMOVUPD  Z5, 64(R12); \
	VMOVUPD  128(R12), Z6; \
	VADDPD   ze, Z6, K3, Z6; \
	VMOVUPD  Z6, 128(R12); \
	VMOVUPD  192(R12), Z7; \
	VADDPD   ze, Z7, K4, Z7; \
	VMOVUPD  Z7, 192(R12); \
	VMOVUPD  256(R12), Z8; \
	VADDPD   ze, Z8, K5, Z8; \
	VMOVUPD  Z8, 256(R12); \
	VMOVUPD  320(R12), Z9; \
	VADDPD   ze, Z9, K6, Z9; \
	VMOVUPD  Z9, 320(R12); \
	VMOVUPD  384(R12), Z10; \
	VADDPD   ze, Z10, K7, Z10; \
	VMOVUPD  Z10, 384(R12); \
	VMOVUPD  448(R12), Z11; \
	VADDPD   ze, Z11, K1, Z11; \
	VMOVUPD  Z11, 448(R12)

// func foldZeroAVX512(acc, energy *float64, anyBits *uint64, nslots, aw int)
TEXT ·foldZeroAVX512(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ energy+8(FP), SI
	MOVQ anyBits+16(FP), DX
	MOVQ nslots+24(FP), CX
	MOVQ aw+32(FP), R13
	SHLQ $9, R13
	ADDQ DI, R13 // end of the stripe's lanes: acc + aw·512 bytes

zslot:
	VBROADCASTSD (SI), Z0
	MOVQ         DI, R12

zword:
	MOVQ  (DX), R11
	TESTQ R11, R11
	JZ    znext
	FOLD64(Z0)

znext:
	ADDQ $8, DX
	ADDQ $512, R12
	CMPQ R12, R13
	JB   zword
	ADDQ $8, SI
	DECQ CX
	JNZ  zslot
	VZEROUPPER
	RET

// func foldTimedAVX512(acc, energy *float64, anyBits, multiBits, b0Bits, ovBits *uint64, nslots, aw, slot, word int, eff2, eff3 float64) (s, k int)
TEXT ·foldTimedAVX512(SB), NOSPLIT, $0-112
	MOVQ   acc+0(FP), DI
	MOVQ   energy+8(FP), SI
	MOVQ   anyBits+16(FP), AX
	MOVQ   multiBits+24(FP), BX
	MOVQ   b0Bits+32(FP), CX
	MOVQ   ovBits+40(FP), DX
	MOVQ   nslots+48(FP), R15
	LEAQ   (SI)(R15*8), R15 // end of the slot energies
	MOVQ   aw+56(FP), R8
	MOVQ   R8, R13
	SHLQ   $9, R13
	ADDQ   DI, R13          // end of the stripe's lanes
	MOVQ   slot+64(FP), R9
	LEAQ   (SI)(R9*8), SI   // energy of the current slot
	MOVQ   word+72(FP), R10
	MOVQ   R10, R12
	SHLQ   $9, R12
	ADDQ   DI, R12          // lanes of the current word
	IMULQ  R9, R8
	ADDQ   R10, R8          // plane index slot·aw + word
	VMOVSD eff2+80(FP), X12
	VMOVSD eff3+88(FP), X13

tslot:
	CMPQ         SI, R15
	JAE          tdone
	VMOVSD       (SI), X0
	VMULSD       X0, X12, X2 // e2 = eff2·eg, the Go fold's scalar product
	VMULSD       X0, X13, X3 // e3 = eff3·eg
	VBROADCASTSD X0, Z0
	VBROADCASTSD X2, Z2
	VBROADCASTSD X3, Z3

tword:
	CMPQ  R12, R13
	JAE   tnextslot
	MOVQ  (AX)(R8*8), R9
	TESTQ R9, R9
	JZ    tnext
	MOVQ  (BX)(R8*8), R10
	MOVQ  R10, R11
	NOTQ  R11
	ANDQ  R9, R11           // count 1: any &^ multi
	JZ    tmulti
	FOLD64(Z0)

tmulti:
	TESTQ R10, R10
	JZ    tnext
	MOVQ  (CX)(R8*8), R9
	MOVQ  (DX)(R8*8), R14
	MOVQ  R9, R11
	ORQ   R14, R11
	NOTQ  R11
	ANDQ  R10, R11          // count 2: multi &^ b0 &^ ov
	JZ    tcount3
	FOLD64(Z2)

tcount3:
	MOVQ  R14, R11
	NOTQ  R11
	ANDQ  R9, R11
	ANDQ  R10, R11          // count 3: multi & b0 &^ ov
	JZ    tover
	FOLD64(Z3)

tover:
	TESTQ R14, R14
	JNZ   treturn           // count ≥ 4: Go adds these lanes

tnext:
	INCQ R8
	ADDQ $512, R12
	JMP  tword

tnextslot:
	ADDQ $8, SI
	MOVQ DI, R12
	JMP  tslot

treturn:
	SUBQ energy+8(FP), SI
	SHRQ $3, SI
	SUBQ DI, R12
	SHRQ $9, R12
	MOVQ SI, s+96(FP)
	MOVQ R12, k+104(FP)
	VZEROUPPER
	RET

tdone:
	MOVQ nslots+48(FP), SI
	MOVQ SI, s+96(FP)
	MOVQ $0, k+104(FP)
	VZEROUPPER
	RET
