// Weight-stationary multi-stream kernels behind PackedGEMV.ApplyBatch: one
// pass over the packed tiles serves every stream of a wave. Tile-outer,
// stream-block-inner — a tile (lanes output rows × cols, column-major, see
// pack.go) is fetched once and reused from L1 by each block of streams. The
// register tile per block is one accumulator and one group subtotal per
// stream plus the group's four weight vectors; stream inputs are broadcast
// straight from each stream's own x slice and results store contiguously
// into each stream's own dst slice, so nothing is interleaved or scattered.
//
// Per (stream, output row) the summation is exactly Dot's: aligned groups of
// four columns ((w0*x0 + w1*x1) + w2*x2) + w3*x3 added to the accumulator in
// ascending order, then a sequential column tail; VMULPD and VADDPD are
// separate elementwise IEEE operations (no FMA, no cross-lane reduction),
// and the epilogue adds in Apply's operand order — so every stream's result
// is bitwise-identical to Apply on that stream.
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

// SGROUP8 advances one stream over one aligned group of four columns
// (weights in Z28..Z31, column index R12).
#define SGROUP8(X, ACC, SUB, T) \
	VMULPD.BCST (X)(R12*8), Z28, SUB \
	VMULPD.BCST 8(X)(R12*8), Z29, T \
	VADDPD      T, SUB, SUB \
	VMULPD.BCST 16(X)(R12*8), Z30, T \
	VADDPD      T, SUB, SUB \
	VMULPD.BCST 24(X)(R12*8), Z31, T \
	VADDPD      T, SUB, SUB \
	VADDPD      SUB, ACC, ACC

// PREFETCH8 requests the group of weight vectors 2 KB (eight groups) ahead
// of the walker. The tiles are contiguous, so this runs ahead inside the
// tile for its first block of streams and into the next tile for its last:
// the hardware prefetcher alone leaves a single block of streams waiting on
// every tile it opens (6.1 against 8.4 multiply-adds per cycle for eight
// streams over three 2 MB matrices).
#define PREFETCH8 \
	PREFETCHT0 2048(SI) \
	PREFETCHT0 2112(SI) \
	PREFETCHT0 2176(SI) \
	PREFETCHT0 2240(SI)

// STAIL8 advances one stream over one tail column (weights in Z28).
#define STAIL8(X, ACC, T) \
	VMULPD.BCST (X)(R12*8), Z28, T \
	VADDPD      T, ACC, ACC

// EPI8 finishes lane LANE of the block whose dst slice headers start at BX,
// at tile byte offset CX: K1 selects the modes that add dst (dst first),
// K2 the modes that add the bias tile Z27 (accumulator first).
#define EPI8(LANE, ACC) \
	MOVQ    (LANE*24)(BX), AX \
	VMOVUPD (AX)(CX*1), K1, Z16 \
	VADDPD  ACC, Z16, K1, ACC \
	VADDPD  Z27, ACC, K2, ACC \
	VMOVUPD ACC, (AX)(CX*1)

// func gemvbatch8avx512(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)
//
// Tiles of eight output rows per zmm; stream blocks of eight, with a final
// block of one to four streams on the four-lane register tile.
TEXT ·gemvbatch8avx512(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), DI           // tile base
	MOVQ cols+16(FP), R13
	ANDQ $-4, R13              // end of the aligned column groups
	MOVQ mode+56(FP), AX
	LEAQ -1(AX), BX
	XORL CX, CX
	CMPQ BX, $2                // modes 1,2 add dst
	SETCS CX
	NEGL CX
	KMOVW CX, K1
	XORL CX, CX
	CMPQ AX, $2                // modes 2,3 add bias
	SETGE CX
	NEGL CX
	KMOVW CX, K2
	XORQ R15, R15              // tile index

tile8b:
	CMPQ R15, tiles+8(FP)
	JGE  done8b
	MOVQ bias+48(FP), AX
	MOVQ R15, BX
	SHLQ $6, BX
	VMOVUPD (AX)(BX*1), K2, Z27
	XORQ R14, R14              // streams done in this tile

block8b:
	MOVQ n+40(FP), R12
	SUBQ R14, R12              // streams left
	JLE  next8b
	LEAQ (R14)(R14*2), SI
	SHLQ $3, SI
	ADDQ xs+24(FP), SI         // the block's x slice headers
	DECQ R12                   // last live lane
	CMPQ R12, $4
	JLT  narrow8b

	LOADX(0, AX)
	LOADX(1, BX)
	LOADX(2, CX)
	LOADX(3, DX)
	LOADX(4, R8)
	LOADX(5, R9)
	LOADX(6, R10)
	LOADX(7, R11)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ DI, SI                // weight walker
	XORQ R12, R12              // column

groups8b:
	CMPQ R12, R13
	JGE  tail8b
	PREFETCH8
	VMOVUPD (SI), Z28
	VMOVUPD 64(SI), Z29
	VMOVUPD 128(SI), Z30
	VMOVUPD 192(SI), Z31
	SGROUP8(AX, Z0, Z8, Z16)
	SGROUP8(BX, Z1, Z9, Z17)
	SGROUP8(CX, Z2, Z10, Z18)
	SGROUP8(DX, Z3, Z11, Z19)
	SGROUP8(R8, Z4, Z12, Z20)
	SGROUP8(R9, Z5, Z13, Z21)
	SGROUP8(R10, Z6, Z14, Z22)
	SGROUP8(R11, Z7, Z15, Z23)
	ADDQ $256, SI
	ADDQ $4, R12
	JMP  groups8b

tail8b:
	CMPQ R12, cols+16(FP)
	JGE  epi8b
	VMOVUPD (SI), Z28
	STAIL8(AX, Z0, Z16)
	STAIL8(BX, Z1, Z17)
	STAIL8(CX, Z2, Z18)
	STAIL8(DX, Z3, Z19)
	STAIL8(R8, Z4, Z20)
	STAIL8(R9, Z5, Z21)
	STAIL8(R10, Z6, Z22)
	STAIL8(R11, Z7, Z23)
	ADDQ $64, SI
	INCQ R12
	JMP  tail8b

epi8b:
	LEAQ (R14)(R14*2), BX
	SHLQ $3, BX
	ADDQ dsts+32(FP), BX       // the block's dst slice headers
	MOVQ R15, CX
	SHLQ $6, CX                // tile byte offset
	MOVQ n+40(FP), DX
	SUBQ R14, DX               // live lanes (≥ 5)
	EPI8(0, Z0)
	EPI8(1, Z1)
	EPI8(2, Z2)
	EPI8(3, Z3)
	EPI8(4, Z4)
	CMPQ DX, $5
	JEQ  blockdone8b
	EPI8(5, Z5)
	CMPQ DX, $6
	JEQ  blockdone8b
	EPI8(6, Z6)
	CMPQ DX, $7
	JEQ  blockdone8b
	EPI8(7, Z7)
blockdone8b:
	ADDQ $8, R14
	JMP  block8b

narrow8b:
	LOADX(0, AX)
	LOADX(1, BX)
	LOADX(2, CX)
	LOADX(3, DX)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ DI, SI
	XORQ R12, R12

groups8n:
	CMPQ R12, R13
	JGE  tail8n
	PREFETCH8
	VMOVUPD (SI), Z28
	VMOVUPD 64(SI), Z29
	VMOVUPD 128(SI), Z30
	VMOVUPD 192(SI), Z31
	SGROUP8(AX, Z0, Z8, Z16)
	SGROUP8(BX, Z1, Z9, Z17)
	SGROUP8(CX, Z2, Z10, Z18)
	SGROUP8(DX, Z3, Z11, Z19)
	ADDQ $256, SI
	ADDQ $4, R12
	JMP  groups8n

tail8n:
	CMPQ R12, cols+16(FP)
	JGE  epi8n
	VMOVUPD (SI), Z28
	STAIL8(AX, Z0, Z16)
	STAIL8(BX, Z1, Z17)
	STAIL8(CX, Z2, Z18)
	STAIL8(DX, Z3, Z19)
	ADDQ $64, SI
	INCQ R12
	JMP  tail8n

epi8n:
	LEAQ (R14)(R14*2), BX
	SHLQ $3, BX
	ADDQ dsts+32(FP), BX
	MOVQ R15, CX
	SHLQ $6, CX
	MOVQ n+40(FP), DX
	SUBQ R14, DX               // live lanes (1..4)
	EPI8(0, Z0)
	CMPQ DX, $1
	JEQ  next8b
	EPI8(1, Z1)
	CMPQ DX, $2
	JEQ  next8b
	EPI8(2, Z2)
	CMPQ DX, $3
	JEQ  next8b
	EPI8(3, Z3)

next8b:
	MOVQ SI, DI                // the walker stopped at the next tile
	INCQ R15
	JMP  tile8b

done8b:
	VZEROUPPER
	RET

// SGROUP4/STAIL4 are SGROUP8/STAIL8 on ymm (weights in Y12..Y15): AVX has
// no embedded broadcast, so each input element is broadcast into a register
// first.
#define SGROUP4(X, ACC, SUB, T) \
	VBROADCASTSD (X)(R12*8), SUB \
	VMULPD       Y12, SUB, SUB \
	VBROADCASTSD 8(X)(R12*8), T \
	VMULPD       Y13, T, T \
	VADDPD       T, SUB, SUB \
	VBROADCASTSD 16(X)(R12*8), T \
	VMULPD       Y14, T, T \
	VADDPD       T, SUB, SUB \
	VBROADCASTSD 24(X)(R12*8), T \
	VMULPD       Y15, T, T \
	VADDPD       T, SUB, SUB \
	VADDPD       SUB, ACC, ACC

#define STAIL4(X, ACC, T) \
	VBROADCASTSD (X)(R12*8), T \
	VMULPD       Y12, T, T \
	VADDPD       T, ACC, ACC

// EPI4 is EPI8 with the mode selections as ymm lane masks: Y12 the modes
// that add dst, Y13 the modes that add the bias tile Y14.
#define EPI4(LANE, ACC) \
	MOVQ       (LANE*24)(BX), AX \
	VMASKMOVPD (AX)(CX*1), Y12, Y8 \
	VADDPD     ACC, Y8, Y8 \
	VBLENDVPD  Y12, Y8, ACC, ACC \
	VADDPD     Y14, ACC, Y8 \
	VBLENDVPD  Y13, Y8, ACC, ACC \
	VMOVUPD    ACC, (AX)(CX*1)

// func gemvbatch4avx(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)
//
// Tiles of four output rows per ymm, stream blocks of four: the sixteen ymm
// hold four accumulators, four subtotals, four temporaries and the group's
// four weight vectors.
TEXT ·gemvbatch4avx(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), DI
	MOVQ cols+16(FP), R13
	ANDQ $-4, R13
	MOVQ mode+56(FP), AX
	LEAQ -1(AX), BX
	XORL R8, R8
	CMPQ BX, $2
	SETCS R8
	NEGQ R8                    // all ones when the mode adds dst
	XORL R9, R9
	CMPQ AX, $2
	SETGE R9
	NEGQ R9                    // all ones when the mode adds bias
	XORQ R15, R15

tile4b:
	CMPQ R15, tiles+8(FP)
	JGE  done4b
	XORQ R14, R14

block4b:
	MOVQ n+40(FP), R12
	SUBQ R14, R12
	JLE  next4b
	LEAQ (R14)(R14*2), SI
	SHLQ $3, SI
	ADDQ xs+24(FP), SI
	DECQ R12
	LOADX(0, AX)
	LOADX(1, BX)
	LOADX(2, CX)
	LOADX(3, DX)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DI, SI
	XORQ R12, R12

groups4b:
	CMPQ R12, R13
	JGE  tail4b
	PREFETCHT0 2048(SI)
	PREFETCHT0 2112(SI)
	VMOVUPD (SI), Y12
	VMOVUPD 32(SI), Y13
	VMOVUPD 64(SI), Y14
	VMOVUPD 96(SI), Y15
	SGROUP4(AX, Y0, Y4, Y8)
	SGROUP4(BX, Y1, Y5, Y9)
	SGROUP4(CX, Y2, Y6, Y10)
	SGROUP4(DX, Y3, Y7, Y11)
	ADDQ $128, SI
	ADDQ $4, R12
	JMP  groups4b

tail4b:
	CMPQ R12, cols+16(FP)
	JGE  epi4b
	VMOVUPD (SI), Y12
	STAIL4(AX, Y0, Y8)
	STAIL4(BX, Y1, Y9)
	STAIL4(CX, Y2, Y10)
	STAIL4(DX, Y3, Y11)
	ADDQ $32, SI
	INCQ R12
	JMP  tail4b

epi4b:
	VMOVQ       R8, X12
	VMOVDDUP    X12, X12
	VINSERTF128 $1, X12, Y12, Y12
	VMOVQ       R9, X13
	VMOVDDUP    X13, X13
	VINSERTF128 $1, X13, Y13, Y13
	MOVQ R15, CX
	SHLQ $5, CX                // tile byte offset
	MOVQ bias+48(FP), AX
	VMASKMOVPD (AX)(CX*1), Y13, Y14
	LEAQ (R14)(R14*2), BX
	SHLQ $3, BX
	ADDQ dsts+32(FP), BX
	MOVQ n+40(FP), DX
	SUBQ R14, DX               // live lanes
	EPI4(0, Y0)
	CMPQ DX, $1
	JEQ  blockdone4b
	EPI4(1, Y1)
	CMPQ DX, $2
	JEQ  blockdone4b
	EPI4(2, Y2)
	CMPQ DX, $3
	JEQ  blockdone4b
	EPI4(3, Y3)
blockdone4b:
	ADDQ $4, R14
	JMP  block4b

next4b:
	MOVQ SI, DI
	INCQ R15
	JMP  tile4b

done4b:
	VZEROUPPER
	RET
