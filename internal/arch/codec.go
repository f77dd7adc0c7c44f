package arch

import (
	"fmt"
	"math/bits"
)

// ISA is the page-table entry codec of one instruction-set architecture:
// a pointer to that architecture's immutable bit table. It is the Go
// analog of the paper's PageTableEntryTrait (Figure 9). A Rust trait is
// monomorphised and costs nothing; a Go interface is an indirect call
// that never inlines. The supported MMUs differ only in where bits sit,
// so the codec is one concrete type whose methods are a few mask
// operations over a per-ISA table, and every PTE test inlines into the
// walkers. A nil ISA means x86-64 to the constructors that take one.
//
// All methods are pure functions over the 64-bit PTE word so that callers
// can read PTEs with a single atomic load and interpret them without
// holding any lock (required by the CortenMM_adv lockless traversal).
type ISA = *Codec

// Codec is one ISA's PTE layout. x8664.go, riscv.go and arm64.go each
// hold one (filled by newCodec); the methods below are the only code.
type Codec struct {
	// present: an entry with any of these bits set is present.
	present uint64
	// leafMask and leafFlip: an entry is a leaf iff
	// (pte^leafFlip)&leafMask != 0 — at every level, or only above
	// level 1 when l1Leaf makes every present level-1 entry a leaf.
	leafMask, leafFlip uint64
	l1Leaf             bool
	// pfnShift and pfnMask place the frame number.
	pfnShift uint8
	pfnMask  uint64
	// rBit … sharedBit are the PTE bit each Perm bit decodes from (one
	// field each: an array costs PermOf its inlining); a bit in decFlip
	// means "granted when clear".
	rBit, wBit, xBit, uBit, cowBit, sharedBit uint8
	decFlip                                   uint64
	// accessed and dirty are the A/D bits.
	accessed, dirty uint64
	// keyShift and keyMask place an MPK protection key (zero without MPK).
	keyShift uint8
	keyMask  uint64
	// table is a non-leaf entry's bits besides the frame; leafBase is
	// every leaf's.
	table, leafBase uint64
	// shape holds a leaf's shape bits by level; WithPerm clears
	// shapeMask before it sets them.
	shape     [8]uint64
	shapeMask uint64
	// permMask is every bit enc sets; WithPerm clears it.
	permMask uint64
	// enc is the PTE bits of each Perm value.
	enc [64]uint64
	// huge has bit l set when a leaf may live at level l > 1.
	huge uint8
	name string
}

// permBits are the PTE bits one Perm bit sets when granted (on) and
// when withheld (off).
type permBits struct{ on, off uint64 }

// layout is what an ISA file declares: the Codec fields it sets
// directly, plus the per-Perm-bit encode and decode bits newCodec turns
// into enc, permMask and the decode bits.
type layout struct {
	Codec
	perm [6]permBits // encode, in Perm bit order
	dec  [6]uint64   // the one bit each Perm bit decodes from
}

func newCodec(l layout) Codec {
	c := l.Codec
	for p := range c.enc {
		for i, b := range l.perm {
			if p&(1<<i) != 0 {
				c.enc[p] |= b.on
			} else {
				c.enc[p] |= b.off
			}
		}
	}
	for _, b := range l.perm {
		c.permMask |= b.on | b.off
	}
	for i, d := range []*uint8{&c.rBit, &c.wBit, &c.xBit, &c.uBit, &c.cowBit, &c.sharedBit} {
		*d = uint8(bits.TrailingZeros64(l.dec[i]))
	}
	return c
}

// X8664 returns the x86-64 4-level paging codec; mpk turns on Intel
// memory-protection-key encoding.
func X8664(mpk bool) ISA {
	if mpk {
		return &x8664MPK
	}
	return &x8664
}

// RISCV returns the RISC-V Sv48 codec.
func RISCV() ISA { return &riscv }

// ARM64 returns the AArch64 VMSAv8-64 (4 KiB granule) codec.
func ARM64() ISA { return &arm64 }

// ByName returns the ISA codec registered under name.
func ByName(name string) (ISA, error) {
	switch name {
	case "x86_64", "x86-64", "amd64":
		return X8664(false), nil
	case "x86_64+mpk", "mpk":
		return X8664(true), nil
	case "riscv64", "riscv", "rv64", "sv48":
		return RISCV(), nil
	case "arm64", "aarch64", "armv8":
		return ARM64(), nil
	default:
		return nil, fmt.Errorf("arch: unknown ISA %q", name)
	}
}

// Name identifies the ISA, e.g. "x86_64" or "riscv64".
func (c *Codec) Name() string { return c.name }

// IsPresent reports whether the entry points to something (pte_present
// in Linux terms).
func (c *Codec) IsPresent(pte uint64) bool { return pte&c.present != 0 }

// IsLeaf reports whether a present entry at the given level maps a page
// rather than pointing to a lower-level PT page.
func (c *Codec) IsLeaf(pte uint64, level int) bool {
	return level == 1 && c.l1Leaf || (pte^c.leafFlip)&c.leafMask != 0
}

// PFNOf extracts the physical frame number from a present entry.
func (c *Codec) PFNOf(pte uint64) PFN { return PFN(pte & c.pfnMask >> (c.pfnShift & 63)) }

// PermOf extracts the permission bits from a present leaf entry.
func (c *Codec) PermOf(pte uint64) Perm {
	x := pte ^ c.decFlip
	return Perm(x>>(c.rBit&63)&1 | x>>(c.wBit&63)&1<<1 | x>>(c.xBit&63)&1<<2 |
		x>>(c.uBit&63)&1<<3 | x>>(c.cowBit&63)&1<<4 | x>>(c.sharedBit&63)&1<<5)
}

// Shared reports whether a present leaf carries PermShared: PermOf's
// sixth bit without the other five.
func (c *Codec) Shared(pte uint64) bool { return (pte^c.decFlip)>>(c.sharedBit&63)&1 != 0 }

// EncodeLeaf builds a present leaf entry mapping pfn at the given level
// (1 = 4 KiB, 2 = 2 MiB, 3 = 1 GiB) with permission p.
func (c *Codec) EncodeLeaf(pfn PFN, p Perm, level int) uint64 {
	return uint64(pfn)<<(c.pfnShift&63)&c.pfnMask | c.leafBase | c.shape[level&7] | c.enc[p&63]
}

// EncodeTable builds a present non-leaf entry pointing at the PT page in
// pfn.
func (c *Codec) EncodeTable(pfn PFN) uint64 {
	return uint64(pfn)<<(c.pfnShift&63)&c.pfnMask | c.table
}

// WithPerm returns pte with its permission bits replaced by p, keeping
// the frame number and giving it the leaf shape of the level.
func (c *Codec) WithPerm(pte uint64, p Perm, level int) uint64 {
	return pte&^(c.permMask|c.shapeMask) | c.shape[level&7] | c.enc[p&63]
}

// Accessed reports the hardware accessed bit.
func (c *Codec) Accessed(pte uint64) bool { return pte&c.accessed != 0 }

// Dirty reports the dirty bit.
func (c *Codec) Dirty(pte uint64) bool { return pte&c.dirty != 0 }

// SetAccessed returns pte with the accessed bit set; the simulated
// hardware walker calls it on access.
func (c *Codec) SetAccessed(pte uint64) uint64 { return pte | c.accessed }

// SetDirty returns pte with the dirty bit set.
func (c *Codec) SetDirty(pte uint64) uint64 { return pte | c.dirty }

// SupportsHugeAt reports whether a leaf may live at the given level.
func (c *Codec) SupportsHugeAt(level int) bool { return c.huge>>uint(level)&1 != 0 }

// WithProtKey tags a leaf entry with an MPK protection key. ISAs without
// MPK return pte unchanged.
func (c *Codec) WithProtKey(pte uint64, key ProtKey) uint64 {
	return pte&^c.keyMask | uint64(key)<<(c.keyShift&63)&c.keyMask
}

// ProtKeyOf extracts the protection key of a leaf entry (0 if the ISA
// has no MPK support).
func (c *Codec) ProtKeyOf(pte uint64) ProtKey {
	return ProtKey(pte & c.keyMask >> (c.keyShift & 63))
}
