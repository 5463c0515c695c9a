// SSE2 kernel for the overlap sweep's dot products (dotRows in
// dot_amd64.go): out[t] = Σ_j w[rows[t]·n + j] · x[j] for each t.
//
// Exactness. dotRowsGo, the portable form, sums each row over two
// accumulators: a0 takes the even j and a1 the odd j, each in ascending j,
// and the row's value is a0 + a1. This kernel keeps those two accumulators
// as the two lanes of one xmm register. Each pass loads the pair
// (x[j], x[j+1]) and (w[j], w[j+1]) for even j, so lane 0 only ever sees
// even j and lane 1 odd j, in ascending order. MULPD rounds each product
// and ADDPD then rounds each sum, exactly as the scalar a0 += w·x does;
// there is no FMA, so no product skips its rounding. An odd n's last term
// goes into lane 0 alone (MULSD/ADDSD). The lanes start at +0, as a0 and
// a1 do, and the row's value is lane 0 + lane 1 by one ADDSD. Every
// operation is the same IEEE-754 double operation on the same operands in
// the same order as the scalar walk, under the same rounding mode, so the
// two give the same bits.
//
// Layout. Four rows per pass share one load of the x pair, which gives four
// independent accumulator chains to cover the add latency; a one-row tail
// handles the remaining rows. Loads are unaligned (MOVUPD) and only SSE2 is
// used, the GOAMD64=v1 baseline, so no CPUID check is needed.

#include "textflag.h"

// func dotRows(w []float64, n int, x []float64, rows []int32, out []float64)
TEXT ·dotRows(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), SI
	MOVQ n+24(FP), R12
	MOVQ x_base+32(FP), DI
	MOVQ rows_base+56(FP), BX
	MOVQ rows_len+64(FP), CX
	MOVQ out_base+80(FP), AX
	MOVQ R12, DX
	ANDQ $-2, DX
	SHLQ $3, DX  // DX = bytes covered by whole (even j, odd j) pairs
	SHLQ $3, R12 // R12 = row length in bytes, n·8

	CMPQ CX, $4
	JB   one

four:
	MOVLQSX 0(BX), R8
	MOVLQSX 4(BX), R9
	MOVLQSX 8(BX), R10
	MOVLQSX 12(BX), R11
	IMULQ   R12, R8
	IMULQ   R12, R9
	IMULQ   R12, R10
	IMULQ   R12, R11
	ADDQ    SI, R8
	ADDQ    SI, R9
	ADDQ    SI, R10
	ADDQ    SI, R11
	XORPD   X1, X1
	XORPD   X2, X2
	XORPD   X3, X3
	XORPD   X4, X4
	XORQ    R13, R13
	CMPQ    R13, DX
	JAE     fourodd

fourpair:
	MOVUPD (DI)(R13*1), X0
	MOVUPD (R8)(R13*1), X5
	MOVUPD (R9)(R13*1), X6
	MOVUPD (R10)(R13*1), X7
	MOVUPD (R11)(R13*1), X8
	MULPD  X0, X5
	MULPD  X0, X6
	MULPD  X0, X7
	MULPD  X0, X8
	ADDPD  X5, X1
	ADDPD  X6, X2
	ADDPD  X7, X3
	ADDPD  X8, X4
	ADDQ   $16, R13
	CMPQ   R13, DX
	JB     fourpair

fourodd:
	CMPQ  R13, R12
	JAE   foursum
	MOVSD (DI)(R13*1), X0
	MOVSD (R8)(R13*1), X5
	MOVSD (R9)(R13*1), X6
	MOVSD (R10)(R13*1), X7
	MOVSD (R11)(R13*1), X8
	MULSD X0, X5
	MULSD X0, X6
	MULSD X0, X7
	MULSD X0, X8
	ADDSD X5, X1
	ADDSD X6, X2
	ADDSD X7, X3
	ADDSD X8, X4

foursum:
	MOVAPD   X1, X5
	MOVAPD   X2, X6
	MOVAPD   X3, X7
	MOVAPD   X4, X8
	UNPCKHPD X5, X5
	UNPCKHPD X6, X6
	UNPCKHPD X7, X7
	UNPCKHPD X8, X8
	ADDSD    X5, X1
	ADDSD    X6, X2
	ADDSD    X7, X3
	ADDSD    X8, X4
	MOVSD    X1, 0(AX)
	MOVSD    X2, 8(AX)
	MOVSD    X3, 16(AX)
	MOVSD    X4, 24(AX)
	ADDQ     $16, BX
	ADDQ     $32, AX
	SUBQ     $4, CX
	CMPQ     CX, $4
	JAE      four

one:
	TESTQ   CX, CX
	JE      done
	MOVLQSX 0(BX), R8
	IMULQ   R12, R8
	ADDQ    SI, R8
	XORPD   X1, X1
	XORQ    R13, R13
	CMPQ    R13, DX
	JAE     oneodd

onepair:
	MOVUPD (DI)(R13*1), X0
	MOVUPD (R8)(R13*1), X5
	MULPD  X0, X5
	ADDPD  X5, X1
	ADDQ   $16, R13
	CMPQ   R13, DX
	JB     onepair

oneodd:
	CMPQ  R13, R12
	JAE   onesum
	MOVSD (DI)(R13*1), X0
	MOVSD (R8)(R13*1), X5
	MULSD X0, X5
	ADDSD X5, X1

onesum:
	MOVAPD   X1, X5
	UNPCKHPD X5, X5
	ADDSD    X5, X1
	MOVSD    X1, 0(AX)
	ADDQ     $4, BX
	ADDQ     $8, AX
	DECQ     CX
	JMP      one

done:
	RET
