#include "textflag.h"

// func inflowKernel(x, pi []float64, from []jump)
//
// x = Σ rate_j · pi[from_j·w : from_j·w + w], with w = len(x) ≥ 16, summed as
// inflowLoop sums it. The kernel walks the line in blocks of sixteen states,
// four chunks of four states in Y0–Y3. For each block it sets the sum from
// the first len(from) % 4 sources, (ra·a + rb·b) + rc·c, or to 0 if there
// are none, and then adds each later group of four sources, ((ra·a + rb·b) +
// rc·c) + rd·d, summed in Y4–Y7. Every product and sum is its own rounded
// VMULPD or VADDPD, so no multiply–add is fused. A block reads only pi and
// from, so the last block of a line starts sixteen states before its end and
// may overlap the one before it, which it writes again with the same values.
//
// DI x, SI pi, DX from, CX the end of from, BX the bytes of a line (w·8),
// R8 the offset in bytes of the block, R9 that of the last block, R10
// len(from) % 4, R11 the next source, R12 the first source of the groups,
// Y8 a broadcast rate, Y9 a product.
TEXT ·inflowKernel(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), BX
	MOVQ pi_base+24(FP), SI
	MOVQ from_base+48(FP), DX
	MOVQ from_len+56(FP), CX
	SHLQ $3, BX
	MOVQ CX, R10
	ANDQ $3, R10
	MOVQ R10, R12
	SHLQ $4, R12
	ADDQ DX, R12
	SHLQ $4, CX
	ADDQ DX, CX
	XORQ R8, R8
	LEAQ -128(BX), R9

// AX = the offset in pi of the block in the source at off(R11).
#define SOURCE(off) \
	MOVLQSX off(R11), AX; \
	IMULQ   BX, AX; \
	ADDQ    R8, AX; \
	VBROADCASTSD off+8(R11), Y8

// Y_k = rate·block, for the four chunks k of the block.
#define SET16(y0, y1, y2, y3) \
	VMULPD (SI)(AX*1), Y8, y0; \
	VMULPD 32(SI)(AX*1), Y8, y1; \
	VMULPD 64(SI)(AX*1), Y8, y2; \
	VMULPD 96(SI)(AX*1), Y8, y3

// Y_k += rate·block, for the four chunks k of the block.
#define ADD16(y0, y1, y2, y3) \
	VMULPD (SI)(AX*1), Y8, Y9; \
	VADDPD Y9, y0, y0; \
	VMULPD 32(SI)(AX*1), Y8, Y9; \
	VADDPD Y9, y1, y1; \
	VMULPD 64(SI)(AX*1), Y8, Y9; \
	VADDPD Y9, y2, y2; \
	VMULPD 96(SI)(AX*1), Y8, Y9; \
	VADDPD Y9, y3, y3

block:
	MOVQ   DX, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   R10, $0
	JEQ    blockGroups
	SOURCE(0)
	SET16(Y0, Y1, Y2, Y3)
	CMPQ   R10, $1
	JEQ    blockGroups
	SOURCE(16)
	ADD16(Y0, Y1, Y2, Y3)
	CMPQ   R10, $2
	JEQ    blockGroups
	SOURCE(32)
	ADD16(Y0, Y1, Y2, Y3)

blockGroups:
	MOVQ R12, R11
	CMPQ R11, CX
	JEQ  blockStore

blockGroup:
	SOURCE(0)
	SET16(Y4, Y5, Y6, Y7)
	SOURCE(16)
	ADD16(Y4, Y5, Y6, Y7)
	SOURCE(32)
	ADD16(Y4, Y5, Y6, Y7)
	SOURCE(48)
	ADD16(Y4, Y5, Y6, Y7)
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ   $64, R11
	CMPQ   R11, CX
	JNE    blockGroup

blockStore:
	VMOVUPD Y0, (DI)(R8*1)
	VMOVUPD Y1, 32(DI)(R8*1)
	VMOVUPD Y2, 64(DI)(R8*1)
	VMOVUPD Y3, 96(DI)(R8*1)
	CMPQ    R8, R9
	JEQ     done
	ADDQ    $128, R8
	CMPQ    R8, R9
	JLE     block
	MOVQ    R9, R8
	JMP     block

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
