// One-hot gather kernels behind OneHotGather and OneHotGather32: dst = W·x
// for the one-hot x given by its active columns, walking the rows of Wᵀ.
// One call covers a whole stream. dst is taken a chunk of registers at a
// time (eight, then one); per chunk the first aligned group's actives are
// summed left-to-right straight into the accumulators, and every later
// group's actives left-to-right into a subtotal that is then added to them
// — the association OneHotDot defines (see onehot.go). Adds are separate
// elementwise IEEE operations, so every element is bitwise what the
// portable loop computes.
//
// Each body is written once as a macro over the add instruction and
// instantiated for float64 and float32; lengths, strides and offsets are in
// bytes, and the caller passes only the register-divisible prefix of dst, a
// non-empty active set and in-range indices.
//
// func gatherf64avx512(dst *float64, n int, wt *float64, stride int, idx *int, nidx, aligned int)
// (and the f32/avx twins): n and stride in bytes, aligned in rows of Wᵀ.
//
// Registers: DI the dst chunk, CX the bytes left, SI the chunk's offset
// into row 0 of Wᵀ, R8 the row stride, R9/R10 the active set and its
// length, R11 the end of the aligned columns, BX the next active, R12 the
// end of the current group, DX the current row.

#include "textflag.h"

// ACTIVE opens the group of active idx[BX]: DX = its row at the chunk,
// R12 = the next aligned four-column boundary, clamped to the aligned end
// (past it every active is a group of its own), BX advanced.
#define ACTIVE \
	MOVQ    (R9)(BX*8), AX \
	INCQ    BX \
	MOVQ    AX, DX \
	IMULQ   R8, DX \
	ADDQ    SI, DX \
	ANDQ    $-4, AX \
	ADDQ    $4, AX \
	CMPQ    AX, R11 \
	CMOVQGT R11, AX \
	MOVQ    AX, R12

// MEMBER moves DX to the next active's row if it lies in the open group,
// else jumps to END.
#define MEMBER(END) \
	CMPQ  BX, R10 \
	JGE   END \
	MOVQ  (R9)(BX*8), DX \
	CMPQ  DX, R12 \
	JGE   END \
	INCQ  BX \
	IMULQ R8, DX \
	ADDQ  SI, DX

#define PROLOGUE \
	MOVQ dst+0(FP), DI \
	MOVQ n+8(FP), CX \
	MOVQ wt+16(FP), SI \
	MOVQ stride+24(FP), R8 \
	MOVQ idx+32(FP), R9 \
	MOVQ nidx+40(FP), R10 \
	MOVQ aligned+48(FP), R11

// GATHER512 walks chunks of eight zmm (Z0..Z7 accumulate, Z8..Z15 hold a
// subtotal), then single zmm (Z0, Z8).
#define GATHER512(ADD) \
	PROLOGUE \
wide: \
	CMPQ CX, $512 \
	JLT  narrow \
	XORQ BX, BX \
	ACTIVE \
	VMOVUPD (DX), Z0 \
	VMOVUPD 64(DX), Z1 \
	VMOVUPD 128(DX), Z2 \
	VMOVUPD 192(DX), Z3 \
	VMOVUPD 256(DX), Z4 \
	VMOVUPD 320(DX), Z5 \
	VMOVUPD 384(DX), Z6 \
	VMOVUPD 448(DX), Z7 \
wfirst: \
	MEMBER(wopen) \
	ADD (DX), Z0, Z0 \
	ADD 64(DX), Z1, Z1 \
	ADD 128(DX), Z2, Z2 \
	ADD 192(DX), Z3, Z3 \
	ADD 256(DX), Z4, Z4 \
	ADD 320(DX), Z5, Z5 \
	ADD 384(DX), Z6, Z6 \
	ADD 448(DX), Z7, Z7 \
	JMP wfirst \
wopen: \
	CMPQ BX, R10 \
	JGE  wstore \
	ACTIVE \
	VMOVUPD (DX), Z8 \
	VMOVUPD 64(DX), Z9 \
	VMOVUPD 128(DX), Z10 \
	VMOVUPD 192(DX), Z11 \
	VMOVUPD 256(DX), Z12 \
	VMOVUPD 320(DX), Z13 \
	VMOVUPD 384(DX), Z14 \
	VMOVUPD 448(DX), Z15 \
wmember: \
	MEMBER(wsum) \
	ADD (DX), Z8, Z8 \
	ADD 64(DX), Z9, Z9 \
	ADD 128(DX), Z10, Z10 \
	ADD 192(DX), Z11, Z11 \
	ADD 256(DX), Z12, Z12 \
	ADD 320(DX), Z13, Z13 \
	ADD 384(DX), Z14, Z14 \
	ADD 448(DX), Z15, Z15 \
	JMP wmember \
wsum: \
	ADD Z8, Z0, Z0 \
	ADD Z9, Z1, Z1 \
	ADD Z10, Z2, Z2 \
	ADD Z11, Z3, Z3 \
	ADD Z12, Z4, Z4 \
	ADD Z13, Z5, Z5 \
	ADD Z14, Z6, Z6 \
	ADD Z15, Z7, Z7 \
	JMP wopen \
wstore: \
	VMOVUPD Z0, (DI) \
	VMOVUPD Z1, 64(DI) \
	VMOVUPD Z2, 128(DI) \
	VMOVUPD Z3, 192(DI) \
	VMOVUPD Z4, 256(DI) \
	VMOVUPD Z5, 320(DI) \
	VMOVUPD Z6, 384(DI) \
	VMOVUPD Z7, 448(DI) \
	ADDQ $512, DI \
	ADDQ $512, SI \
	SUBQ $512, CX \
	JMP  wide \
narrow: \
	CMPQ CX, $64 \
	JLT  done \
	XORQ BX, BX \
	ACTIVE \
	VMOVUPD (DX), Z0 \
nfirst: \
	MEMBER(nopen) \
	ADD (DX), Z0, Z0 \
	JMP nfirst \
nopen: \
	CMPQ BX, R10 \
	JGE  nstore \
	ACTIVE \
	VMOVUPD (DX), Z8 \
nmember: \
	MEMBER(nsum) \
	ADD (DX), Z8, Z8 \
	JMP nmember \
nsum: \
	ADD Z8, Z0, Z0 \
	JMP nopen \
nstore: \
	VMOVUPD Z0, (DI) \
	ADDQ $64, DI \
	ADDQ $64, SI \
	SUBQ $64, CX \
	JMP  narrow \
done: \
	VZEROUPPER \
	RET

// GATHER256 is GATHER512 on ymm: chunks of eight (Y0..Y7 accumulate,
// Y8..Y15 hold a subtotal), then single ymm.
#define GATHER256(ADD) \
	PROLOGUE \
wide: \
	CMPQ CX, $256 \
	JLT  narrow \
	XORQ BX, BX \
	ACTIVE \
	VMOVUPD (DX), Y0 \
	VMOVUPD 32(DX), Y1 \
	VMOVUPD 64(DX), Y2 \
	VMOVUPD 96(DX), Y3 \
	VMOVUPD 128(DX), Y4 \
	VMOVUPD 160(DX), Y5 \
	VMOVUPD 192(DX), Y6 \
	VMOVUPD 224(DX), Y7 \
wfirst: \
	MEMBER(wopen) \
	ADD (DX), Y0, Y0 \
	ADD 32(DX), Y1, Y1 \
	ADD 64(DX), Y2, Y2 \
	ADD 96(DX), Y3, Y3 \
	ADD 128(DX), Y4, Y4 \
	ADD 160(DX), Y5, Y5 \
	ADD 192(DX), Y6, Y6 \
	ADD 224(DX), Y7, Y7 \
	JMP wfirst \
wopen: \
	CMPQ BX, R10 \
	JGE  wstore \
	ACTIVE \
	VMOVUPD (DX), Y8 \
	VMOVUPD 32(DX), Y9 \
	VMOVUPD 64(DX), Y10 \
	VMOVUPD 96(DX), Y11 \
	VMOVUPD 128(DX), Y12 \
	VMOVUPD 160(DX), Y13 \
	VMOVUPD 192(DX), Y14 \
	VMOVUPD 224(DX), Y15 \
wmember: \
	MEMBER(wsum) \
	ADD (DX), Y8, Y8 \
	ADD 32(DX), Y9, Y9 \
	ADD 64(DX), Y10, Y10 \
	ADD 96(DX), Y11, Y11 \
	ADD 128(DX), Y12, Y12 \
	ADD 160(DX), Y13, Y13 \
	ADD 192(DX), Y14, Y14 \
	ADD 224(DX), Y15, Y15 \
	JMP wmember \
wsum: \
	ADD Y8, Y0, Y0 \
	ADD Y9, Y1, Y1 \
	ADD Y10, Y2, Y2 \
	ADD Y11, Y3, Y3 \
	ADD Y12, Y4, Y4 \
	ADD Y13, Y5, Y5 \
	ADD Y14, Y6, Y6 \
	ADD Y15, Y7, Y7 \
	JMP wopen \
wstore: \
	VMOVUPD Y0, (DI) \
	VMOVUPD Y1, 32(DI) \
	VMOVUPD Y2, 64(DI) \
	VMOVUPD Y3, 96(DI) \
	VMOVUPD Y4, 128(DI) \
	VMOVUPD Y5, 160(DI) \
	VMOVUPD Y6, 192(DI) \
	VMOVUPD Y7, 224(DI) \
	ADDQ $256, DI \
	ADDQ $256, SI \
	SUBQ $256, CX \
	JMP  wide \
narrow: \
	CMPQ CX, $32 \
	JLT  done \
	XORQ BX, BX \
	ACTIVE \
	VMOVUPD (DX), Y0 \
nfirst: \
	MEMBER(nopen) \
	ADD (DX), Y0, Y0 \
	JMP nfirst \
nopen: \
	CMPQ BX, R10 \
	JGE  nstore \
	ACTIVE \
	VMOVUPD (DX), Y8 \
nmember: \
	MEMBER(nsum) \
	ADD (DX), Y8, Y8 \
	JMP nmember \
nsum: \
	ADD Y8, Y0, Y0 \
	JMP nopen \
nstore: \
	VMOVUPD Y0, (DI) \
	ADDQ $32, DI \
	ADDQ $32, SI \
	SUBQ $32, CX \
	JMP  narrow \
done: \
	VZEROUPPER \
	RET

TEXT ·gatherf64avx512(SB), NOSPLIT, $0-56
	GATHER512(VADDPD)

TEXT ·gatherf32avx512(SB), NOSPLIT, $0-56
	GATHER512(VADDPS)

TEXT ·gatherf64avx(SB), NOSPLIT, $0-56
	GATHER256(VADDPD)

TEXT ·gatherf32avx(SB), NOSPLIT, $0-56
	GATHER256(VADDPS)
