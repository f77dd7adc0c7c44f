package arch

// AArch64 VMSAv8-64 stage-1 descriptor layout (4 KiB granule):
//
//	bits 1:0       descriptor type: 0b11 = table (levels >1) or page
//	               (level 1); 0b01 = block (huge leaf at levels 2-3)
//	bit 6     AP[0] EL0 (user) accessible
//	bit 7     AP[1] read-only
//	bit 10    AF    access flag
//	bits 12-47     output address
//	bit 51    DBM  dirty-bit-modifier (hardware dirty tracking)
//	bit 53    PXN  privileged execute-never
//	bit 54    UXN  unprivileged execute-never
//	bits 55-58     software-reserved; we use 55 = dirty, 56 = COW,
//	               57 = shared, 58 = logically-writable
//
// ARMv8 has no hardware-set dirty bit in the base architecture; with
// FEAT_HAFDBS the DBM bit enables it. We model the common modern
// configuration (hardware AF + software dirty via bit 55), which still
// satisfies the paper's §4.4 assumption 4 (access and dirty information
// are available to software).
const (
	a64Valid  = 1 << 0
	a64Type   = 1 << 1 // set: table/page descriptor, clear: block
	a64User   = 1 << 6
	a64RO     = 1 << 7
	a64AF     = 1 << 10
	a64DBM    = uint64(1) << 51
	a64PXN    = uint64(1) << 53
	a64UXN    = uint64(1) << 54
	a64SWDirt = uint64(1) << 55
	a64SWCOW  = uint64(1) << 56
	a64SWShrd = uint64(1) << 57
	a64SWWr   = uint64(1) << 58 // logical write permission

	a64AddrMask = ((uint64(1) << 48) - 1) &^ (PageSize - 1)
)

// arm64 is the VMSAv8-64 table, the port of the paper's ARM target
// (§4.4). At level 1 a valid descriptor is a page (type bit set); at
// upper levels the type bit tells table (set) from block (clear), so a
// leaf's shape is the type bit at level 1 and its absence above. A
// logically writable leaf carries DBM; a read-only one carries neither
// DBM nor the logical write bit, since with FEAT_HAFDBS a read-only
// descriptor with DBM set is writable-clean and hardware may write it.
var arm64 = newCodec(layout{
	Codec: Codec{
		name:     "arm64",
		present:  a64Valid,
		leafMask: a64Type, leafFlip: a64Type, l1Leaf: true,
		pfnShift: PageShift, pfnMask: a64AddrMask,
		accessed: a64AF, dirty: a64SWDirt,
		table:     a64Valid | a64Type,
		leafBase:  a64Valid,
		shape:     [8]uint64{1: a64Type},
		shapeMask: a64Type,
		decFlip:   a64UXN,
		huge:      1<<2 | 1<<3,
	},
	perm: [6]permBits{{on: a64Valid}, {on: a64SWWr | a64DBM, off: a64RO}, {off: a64UXN | a64PXN}, {on: a64User}, {on: a64SWCOW}, {on: a64SWShrd}},
	dec:  [6]uint64{a64Valid, a64SWWr, a64UXN, a64User, a64SWCOW, a64SWShrd},
})
