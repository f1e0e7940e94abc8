// Weight-stationary multi-stream kernels behind PackedGEMV.ApplyBatch and
// PackedGEMV32.ApplyBatch: one pass over the packed tiles serves every
// stream of a wave. Tile-outer, stream-block-inner — a tile (lanes output
// rows × cols, column-major, see pack.go) is fetched once and reused from L1
// by each block of streams. The register tile per block is one accumulator
// and one group subtotal per stream plus the group's four weight vectors;
// stream inputs are broadcast straight from each stream's own x slice and
// results store contiguously into each stream's own dst slice, so nothing is
// interleaved or scattered.
//
// Per (stream, output row) the summation is exactly Dot's (Dot32's): aligned
// groups of four columns ((w0*x0 + w1*x1) + w2*x2) + w3*x3 added to the
// accumulator in ascending order, then a sequential column tail; the
// multiplies and adds are separate elementwise IEEE operations (no FMA, no
// cross-lane reduction), and the epilogue adds in Apply's operand order — so
// every stream's result is bitwise-identical to Apply on that stream.
//
// Each body is written once as a macro over the element type — broadcast
// multiply, add and element size SC — and instantiated for float64 (eight
// rows per zmm, four per ymm) and float32 (sixteen and eight). A register
// holds 64 or 32 bytes of either type, so tiles, weight groups, bias tiles
// and dst offsets have the same byte layout at both precisions. Moves,
// masked moves and blends keep their PD forms: the mode masks select whole
// registers, so they move the same bits for either type.
//
// xs and dsts point at Go slice headers (24 bytes each, data pointer
// first); the caller has validated every length. A block narrower than the
// register tile clamps its spare lanes onto the block's last stream — they
// recompute that stream's sums and are never stored.

#include "textflag.h"

// LOADX loads lane LANE's x pointer from the slice-header table at SI,
// clamped to the block's last live lane (R12).
#define LOADX(LANE, REG) \
	MOVQ    $LANE, REG \
	CMPQ    REG, R12 \
	CMOVQGT R12, REG \
	LEAQ    (REG)(REG*2), REG \
	MOVQ    (SI)(REG*8), REG

// SGROUP512 advances one stream over one aligned group of four columns
// (weights in Z28..Z31, column index R12).
#define SGROUP512(MULB, ADD, SC, X, ACC, SUB, T) \
	MULB (X)(R12*SC), Z28, SUB \
	MULB (1*SC)(X)(R12*SC), Z29, T \
	ADD  T, SUB, SUB \
	MULB (2*SC)(X)(R12*SC), Z30, T \
	ADD  T, SUB, SUB \
	MULB (3*SC)(X)(R12*SC), Z31, T \
	ADD  T, SUB, SUB \
	ADD  SUB, ACC, ACC

// PREFETCH8 requests the group of weight vectors 2 KB (eight groups) ahead
// of the walker. The tiles are contiguous, so this runs ahead inside the
// tile for its first block of streams and into the next tile for its last:
// the hardware prefetcher alone leaves a single block of streams waiting on
// every tile it opens (6.1 against 8.4 multiply-adds per cycle for eight
// streams over three 2 MB f64 matrices).
#define PREFETCH8 \
	PREFETCHT0 2048(SI) \
	PREFETCHT0 2112(SI) \
	PREFETCHT0 2176(SI) \
	PREFETCHT0 2240(SI)

// STAIL512 advances one stream over one tail column (weights in Z28).
#define STAIL512(MULB, ADD, SC, X, ACC, T) \
	MULB (X)(R12*SC), Z28, T \
	ADD  T, ACC, ACC

// EPI512 finishes lane LANE of the block whose dst slice headers start at
// BX, at tile byte offset CX: K1 selects the modes that add dst (dst first),
// K2 the modes that add the bias tile Z27 (accumulator first).
#define EPI512(ADD, LANE, ACC) \
	MOVQ    (LANE*24)(BX), AX \
	VMOVUPD (AX)(CX*1), K1, Z16 \
	ADD     ACC, Z16, K1, ACC \
	ADD     Z27, ACC, K2, ACC \
	VMOVUPD ACC, (AX)(CX*1)

// GEMVBATCH512 is the AVX-512 body: one zmm of output rows per tile; stream
// blocks of eight, with a final block of one to four streams on the
// four-lane register tile.
#define GEMVBATCH512(MULB, ADD, SC) \
	MOVQ p+0(FP), DI \
	MOVQ cols+16(FP), R13 \
	ANDQ $-4, R13 \
	MOVQ mode+56(FP), AX \
	LEAQ -1(AX), BX \
	XORL CX, CX \
	CMPQ BX, $2 \
	SETCS CX \
	NEGL CX \
	KMOVW CX, K1 \
	XORL CX, CX \
	CMPQ AX, $2 \
	SETGE CX \
	NEGL CX \
	KMOVW CX, K2 \
	XORQ R15, R15 \
tile: \
	CMPQ R15, tiles+8(FP) \
	JGE  done \
	MOVQ bias+48(FP), AX \
	MOVQ R15, BX \
	SHLQ $6, BX \
	VMOVUPD (AX)(BX*1), K2, Z27 \
	XORQ R14, R14 \
block: \
	MOVQ n+40(FP), R12 \
	SUBQ R14, R12 \
	JLE  next \
	LEAQ (R14)(R14*2), SI \
	SHLQ $3, SI \
	ADDQ xs+24(FP), SI \
	DECQ R12 \
	CMPQ R12, $4 \
	JLT  narrow \
	LOADX(0, AX) \
	LOADX(1, BX) \
	LOADX(2, CX) \
	LOADX(3, DX) \
	LOADX(4, R8) \
	LOADX(5, R9) \
	LOADX(6, R10) \
	LOADX(7, R11) \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	VPXORQ Z4, Z4, Z4 \
	VPXORQ Z5, Z5, Z5 \
	VPXORQ Z6, Z6, Z6 \
	VPXORQ Z7, Z7, Z7 \
	MOVQ DI, SI \
	XORQ R12, R12 \
groups: \
	CMPQ R12, R13 \
	JGE  tail \
	PREFETCH8 \
	VMOVUPD (SI), Z28 \
	VMOVUPD 64(SI), Z29 \
	VMOVUPD 128(SI), Z30 \
	VMOVUPD 192(SI), Z31 \
	SGROUP512(MULB, ADD, SC, AX, Z0, Z8, Z16) \
	SGROUP512(MULB, ADD, SC, BX, Z1, Z9, Z17) \
	SGROUP512(MULB, ADD, SC, CX, Z2, Z10, Z18) \
	SGROUP512(MULB, ADD, SC, DX, Z3, Z11, Z19) \
	SGROUP512(MULB, ADD, SC, R8, Z4, Z12, Z20) \
	SGROUP512(MULB, ADD, SC, R9, Z5, Z13, Z21) \
	SGROUP512(MULB, ADD, SC, R10, Z6, Z14, Z22) \
	SGROUP512(MULB, ADD, SC, R11, Z7, Z15, Z23) \
	ADDQ $256, SI \
	ADDQ $4, R12 \
	JMP  groups \
tail: \
	CMPQ R12, cols+16(FP) \
	JGE  epi \
	VMOVUPD (SI), Z28 \
	STAIL512(MULB, ADD, SC, AX, Z0, Z16) \
	STAIL512(MULB, ADD, SC, BX, Z1, Z17) \
	STAIL512(MULB, ADD, SC, CX, Z2, Z18) \
	STAIL512(MULB, ADD, SC, DX, Z3, Z19) \
	STAIL512(MULB, ADD, SC, R8, Z4, Z20) \
	STAIL512(MULB, ADD, SC, R9, Z5, Z21) \
	STAIL512(MULB, ADD, SC, R10, Z6, Z22) \
	STAIL512(MULB, ADD, SC, R11, Z7, Z23) \
	ADDQ $64, SI \
	INCQ R12 \
	JMP  tail \
epi: \
	LEAQ (R14)(R14*2), BX \
	SHLQ $3, BX \
	ADDQ dsts+32(FP), BX \
	MOVQ R15, CX \
	SHLQ $6, CX \
	MOVQ n+40(FP), DX \
	SUBQ R14, DX \
	EPI512(ADD, 0, Z0) \
	EPI512(ADD, 1, Z1) \
	EPI512(ADD, 2, Z2) \
	EPI512(ADD, 3, Z3) \
	EPI512(ADD, 4, Z4) \
	CMPQ DX, $5 \
	JEQ  blockdone \
	EPI512(ADD, 5, Z5) \
	CMPQ DX, $6 \
	JEQ  blockdone \
	EPI512(ADD, 6, Z6) \
	CMPQ DX, $7 \
	JEQ  blockdone \
	EPI512(ADD, 7, Z7) \
blockdone: \
	ADDQ $8, R14 \
	JMP  block \
narrow: \
	LOADX(0, AX) \
	LOADX(1, BX) \
	LOADX(2, CX) \
	LOADX(3, DX) \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	MOVQ DI, SI \
	XORQ R12, R12 \
ngroups: \
	CMPQ R12, R13 \
	JGE  ntail \
	PREFETCH8 \
	VMOVUPD (SI), Z28 \
	VMOVUPD 64(SI), Z29 \
	VMOVUPD 128(SI), Z30 \
	VMOVUPD 192(SI), Z31 \
	SGROUP512(MULB, ADD, SC, AX, Z0, Z8, Z16) \
	SGROUP512(MULB, ADD, SC, BX, Z1, Z9, Z17) \
	SGROUP512(MULB, ADD, SC, CX, Z2, Z10, Z18) \
	SGROUP512(MULB, ADD, SC, DX, Z3, Z11, Z19) \
	ADDQ $256, SI \
	ADDQ $4, R12 \
	JMP  ngroups \
ntail: \
	CMPQ R12, cols+16(FP) \
	JGE  nepi \
	VMOVUPD (SI), Z28 \
	STAIL512(MULB, ADD, SC, AX, Z0, Z16) \
	STAIL512(MULB, ADD, SC, BX, Z1, Z17) \
	STAIL512(MULB, ADD, SC, CX, Z2, Z18) \
	STAIL512(MULB, ADD, SC, DX, Z3, Z19) \
	ADDQ $64, SI \
	INCQ R12 \
	JMP  ntail \
nepi: \
	LEAQ (R14)(R14*2), BX \
	SHLQ $3, BX \
	ADDQ dsts+32(FP), BX \
	MOVQ R15, CX \
	SHLQ $6, CX \
	MOVQ n+40(FP), DX \
	SUBQ R14, DX \
	EPI512(ADD, 0, Z0) \
	CMPQ DX, $1 \
	JEQ  next \
	EPI512(ADD, 1, Z1) \
	CMPQ DX, $2 \
	JEQ  next \
	EPI512(ADD, 2, Z2) \
	CMPQ DX, $3 \
	JEQ  next \
	EPI512(ADD, 3, Z3) \
next: \
	MOVQ SI, DI \
	INCQ R15 \
	JMP  tile \
done: \
	VZEROUPPER \
	RET

// Register use in GEMVBATCH512: DI the tile base, SI the weight walker (the
// x slice headers while a block loads its pointers), R12 the column (the
// block's last live lane while loading), R13 the end of the aligned column
// groups, R14 the streams done in this tile, R15 the tile index; K1/K2 the
// mode masks (modes 1,2 add dst, modes 2,3 add bias). The walker stops at
// the next tile, so DI advances without arithmetic.

// func gemvbatch8avx512(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)
TEXT ·gemvbatch8avx512(SB), NOSPLIT, $0-64
	GEMVBATCH512(VMULPD.BCST, VADDPD, 8)

// func gemvbatch16f32avx512(p *float32, tiles, cols int, xs, dsts *[]float32, n int, bias *float32, mode int)
TEXT ·gemvbatch16f32avx512(SB), NOSPLIT, $0-64
	GEMVBATCH512(VMULPS.BCST, VADDPS, 4)

// SGROUP256/STAIL256 are SGROUP512/STAIL512 on ymm (weights in Y12..Y15):
// AVX has no embedded broadcast, so each input element is broadcast into a
// register first.
#define SGROUP256(BCAST, MUL, ADD, SC, X, ACC, SUB, T) \
	BCAST (X)(R12*SC), SUB \
	MUL   Y12, SUB, SUB \
	BCAST (1*SC)(X)(R12*SC), T \
	MUL   Y13, T, T \
	ADD   T, SUB, SUB \
	BCAST (2*SC)(X)(R12*SC), T \
	MUL   Y14, T, T \
	ADD   T, SUB, SUB \
	BCAST (3*SC)(X)(R12*SC), T \
	MUL   Y15, T, T \
	ADD   T, SUB, SUB \
	ADD   SUB, ACC, ACC

#define STAIL256(BCAST, MUL, ADD, SC, X, ACC, T) \
	BCAST (X)(R12*SC), T \
	MUL   Y12, T, T \
	ADD   T, ACC, ACC

// EPI256 is EPI512 with the mode selections as ymm lane masks: Y12 the modes
// that add dst, Y13 the modes that add the bias tile Y14.
#define EPI256(ADD, LANE, ACC) \
	MOVQ       (LANE*24)(BX), AX \
	VMASKMOVPD (AX)(CX*1), Y12, Y8 \
	ADD        ACC, Y8, Y8 \
	VBLENDVPD  Y12, Y8, ACC, ACC \
	ADD        Y14, ACC, Y8 \
	VBLENDVPD  Y13, Y8, ACC, ACC \
	VMOVUPD    ACC, (AX)(CX*1)

// GEMVBATCH256 is the AVX2 body: one ymm of output rows per tile, stream
// blocks of four — the sixteen ymm hold four accumulators, four subtotals,
// four temporaries and the group's four weight vectors. R8/R9 hold the mode
// selections (all ones when the mode adds dst / bias).
#define GEMVBATCH256(BCAST, MUL, ADD, SC) \
	MOVQ p+0(FP), DI \
	MOVQ cols+16(FP), R13 \
	ANDQ $-4, R13 \
	MOVQ mode+56(FP), AX \
	LEAQ -1(AX), BX \
	XORL R8, R8 \
	CMPQ BX, $2 \
	SETCS R8 \
	NEGQ R8 \
	XORL R9, R9 \
	CMPQ AX, $2 \
	SETGE R9 \
	NEGQ R9 \
	XORQ R15, R15 \
tile: \
	CMPQ R15, tiles+8(FP) \
	JGE  done \
	XORQ R14, R14 \
block: \
	MOVQ n+40(FP), R12 \
	SUBQ R14, R12 \
	JLE  next \
	LEAQ (R14)(R14*2), SI \
	SHLQ $3, SI \
	ADDQ xs+24(FP), SI \
	DECQ R12 \
	LOADX(0, AX) \
	LOADX(1, BX) \
	LOADX(2, CX) \
	LOADX(3, DX) \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	MOVQ DI, SI \
	XORQ R12, R12 \
groups: \
	CMPQ R12, R13 \
	JGE  tail \
	PREFETCHT0 2048(SI) \
	PREFETCHT0 2112(SI) \
	VMOVUPD (SI), Y12 \
	VMOVUPD 32(SI), Y13 \
	VMOVUPD 64(SI), Y14 \
	VMOVUPD 96(SI), Y15 \
	SGROUP256(BCAST, MUL, ADD, SC, AX, Y0, Y4, Y8) \
	SGROUP256(BCAST, MUL, ADD, SC, BX, Y1, Y5, Y9) \
	SGROUP256(BCAST, MUL, ADD, SC, CX, Y2, Y6, Y10) \
	SGROUP256(BCAST, MUL, ADD, SC, DX, Y3, Y7, Y11) \
	ADDQ $128, SI \
	ADDQ $4, R12 \
	JMP  groups \
tail: \
	CMPQ R12, cols+16(FP) \
	JGE  epi \
	VMOVUPD (SI), Y12 \
	STAIL256(BCAST, MUL, ADD, SC, AX, Y0, Y8) \
	STAIL256(BCAST, MUL, ADD, SC, BX, Y1, Y9) \
	STAIL256(BCAST, MUL, ADD, SC, CX, Y2, Y10) \
	STAIL256(BCAST, MUL, ADD, SC, DX, Y3, Y11) \
	ADDQ $32, SI \
	INCQ R12 \
	JMP  tail \
epi: \
	VMOVQ       R8, X12 \
	VMOVDDUP    X12, X12 \
	VINSERTF128 $1, X12, Y12, Y12 \
	VMOVQ       R9, X13 \
	VMOVDDUP    X13, X13 \
	VINSERTF128 $1, X13, Y13, Y13 \
	MOVQ R15, CX \
	SHLQ $5, CX \
	MOVQ bias+48(FP), AX \
	VMASKMOVPD (AX)(CX*1), Y13, Y14 \
	LEAQ (R14)(R14*2), BX \
	SHLQ $3, BX \
	ADDQ dsts+32(FP), BX \
	MOVQ n+40(FP), DX \
	SUBQ R14, DX \
	EPI256(ADD, 0, Y0) \
	CMPQ DX, $1 \
	JEQ  blockdone \
	EPI256(ADD, 1, Y1) \
	CMPQ DX, $2 \
	JEQ  blockdone \
	EPI256(ADD, 2, Y2) \
	CMPQ DX, $3 \
	JEQ  blockdone \
	EPI256(ADD, 3, Y3) \
blockdone: \
	ADDQ $4, R14 \
	JMP  block \
next: \
	MOVQ SI, DI \
	INCQ R15 \
	JMP  tile \
done: \
	VZEROUPPER \
	RET

// func gemvbatch4avx(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)
TEXT ·gemvbatch4avx(SB), NOSPLIT, $0-64
	GEMVBATCH256(VBROADCASTSD, VMULPD, VADDPD, 8)

// func gemvbatch8f32avx(p *float32, tiles, cols int, xs, dsts *[]float32, n int, bias *float32, mode int)
TEXT ·gemvbatch8f32avx(SB), NOSPLIT, $0-64
	GEMVBATCH256(VBROADCASTSS, VMULPS, VADDPS, 4)
