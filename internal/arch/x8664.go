package arch

// x86-64 long-mode PTE layout (Intel SDM Vol. 3, 4-level paging):
//
//	bit 0     P    present
//	bit 1     R/W  writable
//	bit 2     U/S  user
//	bit 5     A    accessed
//	bit 6     D    dirty
//	bit 7     PS   page size (leaf) at levels 2 and 3
//	bits 9-11      ignored (software); we use 9 = COW, 10 = shared
//	bits 12-51     physical frame number
//	bits 59-62     protection key (when MPK is enabled)
//	bit 63    XD   execute-disable
const (
	x86Present  = 1 << 0
	x86Write    = 1 << 1
	x86User     = 1 << 2
	x86Accessed = 1 << 5
	x86Dirty    = 1 << 6
	x86Huge     = 1 << 7
	x86SWCOW    = 1 << 9
	x86SWShared = 1 << 10
	x86NX       = 1 << 63

	x86AddrMask = ((uint64(1) << 52) - 1) &^ (PageSize - 1)

	x86PKeyShift = 59
	x86PKeyMask  = uint64(0xf) << x86PKeyShift
)

// x8664 and x8664MPK are the x86-64 4-level paging tables. Non-leaf
// entries are maximally permissive: x86 access control intersects
// permissions along the walk, so real OSes (and CortenMM) keep upper
// levels open and restrict at the leaf. PS counts as present, as in
// Linux's pte_present, because PROT_NONE mappings clear P but keep PS.
var x8664 = newCodec(layout{
	Codec: Codec{
		name:     "x86_64",
		present:  x86Present | x86Huge,
		leafMask: x86Huge, l1Leaf: true,
		pfnShift: PageShift, pfnMask: x86AddrMask,
		accessed: x86Accessed, dirty: x86Dirty,
		table:    x86Present | x86Write | x86User,
		leafBase: x86Present,
		shape:    [8]uint64{2: x86Huge, 3: x86Huge, 4: x86Huge},
		decFlip:  x86NX,
		huge:     1<<2 | 1<<3, // 2 MiB and 1 GiB
	},
	perm: [6]permBits{{on: x86Present}, {on: x86Write}, {off: x86NX}, {on: x86User}, {on: x86SWCOW}, {on: x86SWShared}},
	dec:  [6]uint64{x86Present, x86Write, x86NX, x86User, x86SWCOW, x86SWShared},
})

var x8664MPK = func() Codec {
	c := x8664
	c.name, c.keyShift, c.keyMask = "x86_64+mpk", x86PKeyShift, x86PKeyMask
	return c
}()
