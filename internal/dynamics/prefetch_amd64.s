#include "textflag.h"

// func prefetchRow(first, last *int32)
TEXT ·prefetchRow(SB), NOSPLIT, $0-16
	MOVQ	first+0(FP), AX
	MOVQ	last+8(FP), BX
	PREFETCHT0	(AX)
	PREFETCHT0	(BX)
	RET
