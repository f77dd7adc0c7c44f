package arch

// RISC-V Sv48 PTE layout (RISC-V privileged spec):
//
//	bit 0     V    valid
//	bit 1     R    readable
//	bit 2     W    writable
//	bit 3     X    executable
//	bit 4     U    user
//	bit 5     G    global
//	bit 6     A    accessed
//	bit 7     D    dirty
//	bits 8-9  RSW  software; we use 8 = COW, 9 = shared
//	bits 10-53     physical frame number
//
// An entry is a leaf iff any of R/W/X is set; V alone marks a pointer to
// the next level. RISC-V has no protection keys.
const (
	rvValid    = 1 << 0
	rvRead     = 1 << 1
	rvWrite    = 1 << 2
	rvExec     = 1 << 3
	rvUser     = 1 << 4
	rvAccessed = 1 << 6
	rvDirty    = 1 << 7
	rvSWCOW    = 1 << 8
	rvSWShared = 1 << 9

	rvPFNShift = 10
	rvPFNMask  = ((uint64(1) << 44) - 1) << rvPFNShift
)

// riscv is the Sv48 table. Sv48 allows leaves at levels 2-4; we cap at
// level 3 (1 GiB) to match the page sizes CortenMM supports.
var riscv = newCodec(layout{
	Codec: Codec{
		name:     "riscv64",
		present:  rvValid,
		leafMask: rvRead | rvWrite | rvExec,
		pfnShift: rvPFNShift, pfnMask: rvPFNMask,
		accessed: rvAccessed, dirty: rvDirty,
		table:    rvValid,
		leafBase: rvValid,
		huge:     1<<2 | 1<<3,
	},
	perm: [6]permBits{{on: rvRead}, {on: rvWrite}, {on: rvExec}, {on: rvUser}, {on: rvSWCOW}, {on: rvSWShared}},
	dec:  [6]uint64{rvRead, rvWrite, rvExec, rvUser, rvSWCOW, rvSWShared},
})
