// f32 packed single-vector GEMV kernels behind PackedGEMV32.Apply, at full
// native f32 lane width: eight rows per ymm on AVX2, sixteen per zmm on
// AVX-512. Each lane reproduces exactly the scalar Dot32 association —
// groups of four summed left-to-right into the accumulator, then a
// sequential tail — so the vectorized result is bitwise identical to the
// scalar f32 path. VMULPS/VADDPS are elementwise IEEE single multiply/add:
// no FMA contraction, no cross-lane reduction.

#include "textflag.h"

// func gemv8f32avx(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)
//
// Packed f32 single-vector product: p holds tiles of eight consecutive
// output rows, column-major within the tile (see mathx.PackGEMV32), so
// each ymm lane is one output row and the stores are contiguous. Per
// tile: acc = 0; for the vector's columns in Dot32's group-of-four
// association accumulate acc += x[k]*p[k]; then the mode epilogue
// (0: dst=acc, 1: dst=dst+acc, 2: dst=(dst+acc)+bias, 3: dst=acc+bias —
// additions in exactly that operand order) and a contiguous store. p
// advances continuously across tiles; x rewinds per tile.
TEXT ·gemv8f32avx(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI           // packed walker (continuous)
	MOVQ tiles+8(FP), R8
	MOVQ cols+16(FP), R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI        // advances one tile per iteration
	MOVQ bias+40(FP), R14
	MOVQ mode+48(FP), R11

tileloop8fv:
	TESTQ R8, R8
	JZ    done8fv
	VXORPS Y0, Y0, Y0
	MOVQ   DX, CX              // x walker
	MOVQ   R9, R12             // remaining columns

groups8fv:
	CMPQ R12, $4
	JLT  tail8fv
	// t = ((x0*p0 + x1*p1) + x2*p2) + x3*p3 per lane (output row).
	VBROADCASTSS (CX), Y1
	VMULPS       (SI), Y1, Y2
	VBROADCASTSS 4(CX), Y1
	VMULPS       32(SI), Y1, Y3
	VADDPS       Y3, Y2, Y2
	VBROADCASTSS 8(CX), Y1
	VMULPS       64(SI), Y1, Y3
	VADDPS       Y3, Y2, Y2
	VBROADCASTSS 12(CX), Y1
	VMULPS       96(SI), Y1, Y3
	VADDPS       Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	ADDQ   $128, SI
	ADDQ   $16, CX
	SUBQ   $4, R12
	JMP    groups8fv

tail8fv:
	TESTQ R12, R12
	JZ    epi8fv
	VBROADCASTSS (CX), Y1
	VMULPS       (SI), Y1, Y2
	VADDPS       Y2, Y0, Y0
	ADDQ  $32, SI
	ADDQ  $4, CX
	DECQ  R12
	JMP   tail8fv

epi8fv:
	CMPQ R11, $0
	JE   store8fv
	CMPQ R11, $3
	JE   bias8fv
	// modes 1,2: acc = dst + acc (dst is the first operand).
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y0
	CMPQ R11, $1
	JE   store8fv
bias8fv:
	// modes 2,3: acc = acc + bias (acc is the first operand).
	VMOVUPS (R14), Y1
	VADDPS  Y1, Y0, Y0
store8fv:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R14
	DECQ R8
	JMP  tileloop8fv

done8fv:
	VZEROUPPER
	RET

// func gemv16f32avx512(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)
//
// The 512-bit twin of gemv8f32avx: tiles of sixteen output rows per zmm,
// same association and epilogue contract.
TEXT ·gemv16f32avx512(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), SI
	MOVQ tiles+8(FP), R8
	MOVQ cols+16(FP), R9
	MOVQ x+24(FP), DX
	MOVQ dst+32(FP), DI
	MOVQ bias+40(FP), R14
	MOVQ mode+48(FP), R11

tileloop16fv:
	TESTQ R8, R8
	JZ    done16fv
	VPXORQ Z0, Z0, Z0
	MOVQ   DX, CX
	MOVQ   R9, R12

groups16fv:
	CMPQ R12, $4
	JLT  tail16fv
	VBROADCASTSS (CX), Z1
	VMULPS       (SI), Z1, Z2
	VBROADCASTSS 4(CX), Z1
	VMULPS       64(SI), Z1, Z3
	VADDPS       Z3, Z2, Z2
	VBROADCASTSS 8(CX), Z1
	VMULPS       128(SI), Z1, Z3
	VADDPS       Z3, Z2, Z2
	VBROADCASTSS 12(CX), Z1
	VMULPS       192(SI), Z1, Z3
	VADDPS       Z3, Z2, Z2
	VADDPS Z2, Z0, Z0
	ADDQ   $256, SI
	ADDQ   $16, CX
	SUBQ   $4, R12
	JMP    groups16fv

tail16fv:
	TESTQ R12, R12
	JZ    epi16fv
	VBROADCASTSS (CX), Z1
	VMULPS       (SI), Z1, Z2
	VADDPS       Z2, Z0, Z0
	ADDQ  $64, SI
	ADDQ  $4, CX
	DECQ  R12
	JMP   tail16fv

epi16fv:
	CMPQ R11, $0
	JE   store16fv
	CMPQ R11, $3
	JE   bias16fv
	VMOVUPS (DI), Z1
	VADDPS  Z0, Z1, Z0
	CMPQ R11, $1
	JE   store16fv
bias16fv:
	VMOVUPS (R14), Z1
	VADDPS  Z1, Z0, Z0
store16fv:
	VMOVUPS Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, R14
	DECQ R8
	JMP  tileloop16fv

done16fv:
	VZEROUPPER
	RET
