#include "textflag.h"

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbvXCR0() uint32
TEXT ·xgetbvXCR0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func firAVX16(out, x []complex128, taps []float64)
//
// Each block computes sixteen outputs in Y0–Y7, register j holding
// outputs i+2j and i+2j+1 as (re, im, re, im): the lanes of one 32-byte
// load of x. At tap k the block's outputs read x[i+nt−1−k …], so the
// window pointer AX steps back one complex sample per tap while BX
// walks the taps forward.
TEXT ·firAVX16(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ taps_base+48(FP), R8
	MOVQ taps_len+56(FP), R9
	SHRQ $4, CX
	JZ   done
	TESTQ R9, R9
	JZ   done
	MOVQ R9, AX
	SHLQ $4, AX
	LEAQ -16(SI)(AX*1), SI // SI = &x[nt−1], block 0's tap-0 window

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ R8, BX
	MOVQ R9, DX

tap:
	VBROADCASTSD (BX), Y8
	VMULPD 0(AX), Y8, Y9
	VMULPD 32(AX), Y8, Y10
	VMULPD 64(AX), Y8, Y11
	VMULPD 96(AX), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VMULPD 128(AX), Y8, Y13
	VMULPD 160(AX), Y8, Y14
	VMULPD 192(AX), Y8, Y15
	VMULPD 224(AX), Y8, Y9
	VADDPD Y13, Y4, Y4
	VADDPD Y14, Y5, Y5
	VADDPD Y15, Y6, Y6
	VADDPD Y9, Y7, Y7
	ADDQ $8, BX
	SUBQ $16, AX
	DECQ DX
	JNZ  tap

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	DECQ CX
	JNZ  block

done:
	VZEROUPPER
	RET
