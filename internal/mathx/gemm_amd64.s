// AVX kernel for the batched GEMM (MulRowsT): four input rows (streams)
// advance together, one ymm lane per stream. Each lane reproduces exactly
// the scalar Dot association — groups of four summed left-to-right into the
// accumulator, then a sequential tail — so the vectorized result is bitwise
// identical to MulVec per row. VMULPD/VADDPD are elementwise IEEE double
// multiply/add: no FMA contraction, no cross-lane reduction.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	// XCR0 bits 1 and 2: XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  noavx512
	MOVL $1, AX
	CPUID
	// Need OSXSAVE (ECX bit 27) before XGETBV is legal.
	ANDL $(1 << 27), CX
	JZ   noavx512
	// XCR0 bits 1,2 (XMM/YMM) and 5,6,7 (opmask, ZMM0-15 upper,
	// ZMM16-31): the full AVX-512 register state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noavx512
	// CPUID.(EAX=7,ECX=0):EBX bit 16: AVX512F.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1 << 16), BX
	JZ   noavx512
	MOVB $1, ret+0(FP)
	RET
noavx512:
	MOVB $0, ret+0(FP)
	RET

// func gemm4avx(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)
//
// For each of rows weight rows: acc(4 lanes) = dst lanes if cont else 0;
// then for kn packed columns of xt (layout xt[4*k+lane]) accumulate
// acc += w[k]*xt[k] in Dot's group-of-four association; store acc back to
// the four lanes dst[lane*dstStride + j].
TEXT ·gemm4avx(SB), NOSPLIT, $0-57
	MOVQ    w+0(FP), SI        // w row pointer (advances per row)
	MOVQ    stride+8(FP), AX
	SHLQ    $3, AX             // w row stride in bytes
	MOVQ    rows+16(FP), R8
	MOVQ    xt+24(FP), DX
	MOVQ    kn+32(FP), R9
	MOVQ    dst+40(FP), DI
	MOVQ    dstStride+48(FP), R10
	SHLQ    $3, R10            // lane stride in bytes
	MOVBLZX cont+56(FP), R11
	XORQ    R13, R13           // j: row index

rowloop:
	CMPQ R13, R8
	JGE  done
	LEAQ (DI)(R13*8), R15      // &dst[j], lane 0
	LEAQ (R15)(R10*1), R14     // lane 1; lanes 2,3 are (R15/R14)(R10*2)

	TESTQ R11, R11
	JZ    zeroacc
	VMOVSD  (R15), X0
	VMOVHPD (R14), X0, X0
	VMOVSD  (R15)(R10*2), X1
	VMOVHPD (R14)(R10*2), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	JMP  accready
zeroacc:
	VXORPD Y0, Y0, Y0
accready:

	MOVQ SI, BX                // w walker
	MOVQ DX, CX                // xt walker
	MOVQ R9, R12               // remaining columns

groups:
	CMPQ R12, $4
	JLT  tail
	// t = ((w0*x0 + w1*x1) + w2*x2) + w3*x3, one lane per stream.
	VBROADCASTSD (BX), Y1
	VMULPD       (CX), Y1, Y2
	VBROADCASTSD 8(BX), Y1
	VMULPD       32(CX), Y1, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 16(BX), Y1
	VMULPD       64(CX), Y1, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 24(BX), Y1
	VMULPD       96(CX), Y1, Y3
	VADDPD       Y3, Y2, Y2
	// acc += t
	VADDPD Y2, Y0, Y0
	ADDQ   $32, BX
	ADDQ   $128, CX
	SUBQ   $4, R12
	JMP    groups

tail:
	TESTQ R12, R12
	JZ    store
	VBROADCASTSD (BX), Y1
	VMULPD       (CX), Y1, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ  $8, BX
	ADDQ  $32, CX
	DECQ  R12
	JMP   tail

store:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD  X0, (R15)
	VMOVHPD X0, (R14)
	VMOVSD  X1, (R15)(R10*2)
	VMOVHPD X1, (R14)(R10*2)

	ADDQ AX, SI
	INCQ R13
	JMP  rowloop

done:
	VZEROUPPER
	RET

// func chain4avx(dst *float64, scal *float64, vp *float64, steps, n, c int)
//
// Four accumulator chains advance together over the vectorizable columns
// [0, n): for r = 0..3, j in a 4-wide ymm tile, acc(r,j) is loaded from
// dst[r*c+j], then for each of steps rows acc += scal[4*s+r]*vp[s*c+j]
// (VMULPD + VADDPD: one rounding per multiply and per add, no FMA, no
// cross-lane reduction — the exact association of the scalar tile), and the
// accumulators are stored back. n and c are in elements; n is a multiple of
// four and the caller handles the c % 4 column tail.
TEXT ·chain4avx(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ scal+8(FP), DX
	MOVQ vp+16(FP), SI
	MOVQ steps+24(FP), R8
	MOVQ n+32(FP), R9
	SHLQ $3, R9                // vector-column end in bytes
	MOVQ c+40(FP), R10
	SHLQ $3, R10               // row stride in bytes
	XORQ R13, R13              // j offset in bytes

jloop:
	CMPQ R13, R9
	JGE  done
	LEAQ (DI)(R13*1), AX       // row 0 tile
	LEAQ (AX)(R10*1), R14      // row 1 tile; rows 2,3 via (R10*2)
	VMOVUPD (AX), Y0
	VMOVUPD (R14), Y1
	VMOVUPD (AX)(R10*2), Y2
	VMOVUPD (R14)(R10*2), Y3

	MOVQ DX, BX                // scal walker
	LEAQ (SI)(R13*1), CX       // vp walker
	MOVQ R8, R12               // remaining steps

sloop:
	VMOVUPD      (CX), Y6
	VBROADCASTSD (BX), Y4
	VMULPD       Y6, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD 8(BX), Y4
	VMULPD       Y6, Y4, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD 16(BX), Y4
	VMULPD       Y6, Y4, Y5
	VADDPD       Y5, Y2, Y2
	VBROADCASTSD 24(BX), Y4
	VMULPD       Y6, Y4, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ $32, BX
	ADDQ R10, CX
	DECQ R12
	JNZ  sloop

	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (R14)
	VMOVUPD Y2, (AX)(R10*2)
	VMOVUPD Y3, (R14)(R10*2)
	ADDQ $32, R13
	JMP  jloop

done:
	VZEROUPPER
	RET

// func gemm8avx512(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)
//
// The 512-bit twin of gemm4avx: eight streams per zmm lane, packed layout
// xt[8*k+lane]. Per weight row: acc(8 lanes) = dst lanes if cont else 0;
// for kn packed columns accumulate acc += w[k]*xt[k] in Dot's
// group-of-four association; store acc back to dst[lane*dstStride + j].
// VMULPD/VADDPD on zmm are still elementwise IEEE double ops — no FMA
// contraction, no cross-lane reduction — so each lane is bitwise-identical
// to the scalar Dot chain.
TEXT ·gemm8avx512(SB), NOSPLIT, $0-57
	MOVQ    w+0(FP), SI        // w row pointer (advances per row)
	MOVQ    stride+8(FP), AX
	SHLQ    $3, AX             // w row stride in bytes
	MOVQ    rows+16(FP), R8
	MOVQ    xt+24(FP), DX
	MOVQ    kn+32(FP), R9
	MOVQ    dst+40(FP), DI
	MOVQ    dstStride+48(FP), R10
	SHLQ    $3, R10            // lane stride in bytes
	MOVBLZX cont+56(FP), R11
	XORQ    R13, R13           // j: row index

rowloop8:
	CMPQ R13, R8
	JGE  done8
	LEAQ (DI)(R13*8), R15      // &dst[j], lane 0
	LEAQ (R15)(R10*1), R14     // lane 1; lanes 2,3 via (R10*2)

	TESTQ R11, R11
	JZ    zeroacc8
	// Gather the eight strided lanes: pairs into xmm, halves into ymm,
	// ymm halves into the zmm accumulator.
	VMOVSD  (R15), X0
	VMOVHPD (R14), X0, X0
	VMOVSD  (R15)(R10*2), X2
	VMOVHPD (R14)(R10*2), X2, X2
	VINSERTF128 $1, X2, Y0, Y0
	LEAQ (R15)(R10*4), BX      // lane 4 base
	LEAQ (R14)(R10*4), CX      // lane 5 base
	VMOVSD  (BX), X1
	VMOVHPD (CX), X1, X1
	VMOVSD  (BX)(R10*2), X2
	VMOVHPD (CX)(R10*2), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VINSERTF64X4 $1, Y1, Z0, Z0
	JMP  accready8
zeroacc8:
	VPXORQ Z0, Z0, Z0
accready8:

	MOVQ SI, BX                // w walker
	MOVQ DX, CX                // xt walker
	MOVQ R9, R12               // remaining columns

groups8:
	CMPQ R12, $4
	JLT  tail8
	// t = ((w0*x0 + w1*x1) + w2*x2) + w3*x3, one lane per stream.
	VBROADCASTSD (BX), Z1
	VMULPD       (CX), Z1, Z2
	VBROADCASTSD 8(BX), Z1
	VMULPD       64(CX), Z1, Z3
	VADDPD       Z3, Z2, Z2
	VBROADCASTSD 16(BX), Z1
	VMULPD       128(CX), Z1, Z3
	VADDPD       Z3, Z2, Z2
	VBROADCASTSD 24(BX), Z1
	VMULPD       192(CX), Z1, Z3
	VADDPD       Z3, Z2, Z2
	// acc += t
	VADDPD Z2, Z0, Z0
	ADDQ   $32, BX
	ADDQ   $256, CX
	SUBQ   $4, R12
	JMP    groups8

tail8:
	TESTQ R12, R12
	JZ    store8
	VBROADCASTSD (BX), Z1
	VMULPD       (CX), Z1, Z2
	VADDPD       Z2, Z0, Z0
	ADDQ  $8, BX
	ADDQ  $64, CX
	DECQ  R12
	JMP   tail8

store8:
	// Scatter the eight lanes back through the same strided addresses.
	VEXTRACTF64X4 $1, Z0, Y1   // lanes 4-7
	VEXTRACTF128  $1, Y0, X2   // lanes 2,3
	VMOVSD  X0, (R15)
	VMOVHPD X0, (R14)
	VMOVSD  X2, (R15)(R10*2)
	VMOVHPD X2, (R14)(R10*2)
	LEAQ (R15)(R10*4), BX
	LEAQ (R14)(R10*4), CX
	VEXTRACTF128 $1, Y1, X2    // lanes 6,7
	VMOVSD  X1, (BX)
	VMOVHPD X1, (CX)
	VMOVSD  X2, (BX)(R10*2)
	VMOVHPD X2, (CX)(R10*2)

	ADDQ AX, SI
	INCQ R13
	JMP  rowloop8

done8:
	VZEROUPPER
	RET

// func gemv4avx(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)
//
// Packed single-vector product: p holds tiles of four consecutive output
// rows, column-major within the tile (see mathx.PackGEMV), so each ymm lane
// is one output row and the stores are contiguous. Per tile: acc = 0; for
// the vector's columns in Dot's group-of-four association accumulate
// acc += x[k]*p[k]; then the mode epilogue (0: dst=acc, 1: dst=dst+acc,
// 2: dst=(dst+acc)+bias, 3: dst=acc+bias — additions in exactly that
// operand order) and a contiguous store. p advances continuously across
// tiles; x rewinds per tile.
TEXT ·gemv4avx(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI           // packed walker (continuous)
	MOVQ tiles+8(FP), R8
	MOVQ cols+16(FP), R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI        // advances one tile per iteration
	MOVQ bias+40(FP), R14
	MOVQ mode+48(FP), R11

tileloop4:
	TESTQ R8, R8
	JZ    done4v
	VXORPD Y0, Y0, Y0
	MOVQ   DX, CX              // x walker
	MOVQ   R9, R12             // remaining columns

groups4v:
	CMPQ R12, $4
	JLT  tail4v
	// t = ((x0*p0 + x1*p1) + x2*p2) + x3*p3 per lane (output row).
	VBROADCASTSD (CX), Y1
	VMULPD       (SI), Y1, Y2
	VBROADCASTSD 8(CX), Y1
	VMULPD       32(SI), Y1, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 16(CX), Y1
	VMULPD       64(SI), Y1, Y3
	VADDPD       Y3, Y2, Y2
	VBROADCASTSD 24(CX), Y1
	VMULPD       96(SI), Y1, Y3
	VADDPD       Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	ADDQ   $128, SI
	ADDQ   $32, CX
	SUBQ   $4, R12
	JMP    groups4v

tail4v:
	TESTQ R12, R12
	JZ    epi4v
	VBROADCASTSD (CX), Y1
	VMULPD       (SI), Y1, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ  $32, SI
	ADDQ  $8, CX
	DECQ  R12
	JMP   tail4v

epi4v:
	CMPQ R11, $0
	JE   store4v
	CMPQ R11, $3
	JE   bias4v
	// modes 1,2: acc = dst + acc (dst is the first operand).
	VMOVUPD (DI), Y1
	VADDPD  Y0, Y1, Y0
	CMPQ R11, $1
	JE   store4v
bias4v:
	// modes 2,3: acc = acc + bias (acc is the first operand).
	VMOVUPD (R14), Y1
	VADDPD  Y1, Y0, Y0
store4v:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R14
	DECQ R8
	JMP  tileloop4

done4v:
	VZEROUPPER
	RET

// func gemv8avx512(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)
//
// The 512-bit twin of gemv4avx: tiles of eight output rows per zmm, same
// association and epilogue contract.
TEXT ·gemv8avx512(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ tiles+8(FP), R8
	MOVQ cols+16(FP), R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI
	MOVQ bias+40(FP), R14
	MOVQ mode+48(FP), R11

tileloop8v:
	TESTQ R8, R8
	JZ    done8v
	VPXORQ Z0, Z0, Z0
	MOVQ   DX, CX
	MOVQ   R9, R12

groups8v:
	CMPQ R12, $4
	JLT  tail8v
	VBROADCASTSD (CX), Z1
	VMULPD       (SI), Z1, Z2
	VBROADCASTSD 8(CX), Z1
	VMULPD       64(SI), Z1, Z3
	VADDPD       Z3, Z2, Z2
	VBROADCASTSD 16(CX), Z1
	VMULPD       128(SI), Z1, Z3
	VADDPD       Z3, Z2, Z2
	VBROADCASTSD 24(CX), Z1
	VMULPD       192(SI), Z1, Z3
	VADDPD       Z3, Z2, Z2
	VADDPD Z2, Z0, Z0
	ADDQ   $256, SI
	ADDQ   $32, CX
	SUBQ   $4, R12
	JMP    groups8v

tail8v:
	TESTQ R12, R12
	JZ    epi8v
	VBROADCASTSD (CX), Z1
	VMULPD       (SI), Z1, Z2
	VADDPD       Z2, Z0, Z0
	ADDQ  $64, SI
	ADDQ  $8, CX
	DECQ  R12
	JMP   tail8v

epi8v:
	CMPQ R11, $0
	JE   store8v
	CMPQ R11, $3
	JE   bias8v
	VMOVUPD (DI), Z1
	VADDPD  Z0, Z1, Z0
	CMPQ R11, $1
	JE   store8v
bias8v:
	VMOVUPD (R14), Z1
	VADDPD  Z1, Z0, Z0
store8v:
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, R14
	DECQ R8
	JMP  tileloop8v

done8v:
	VZEROUPPER
	RET
