package arch

// The parent codecs, kept as reference implementations for
// TestCodecMatchesReference: one Go type per ISA behind an interface,
// as the codec was before it became a table. They share the layout
// constants of x8664.go, riscv.go and arm64.go. refARM64.WithPerm clears
// DBM with the other permission bits, the one deliberate change.

import (
	"math/rand"
	"testing"
)

type refISA interface {
	Name() string
	EncodeLeaf(pfn PFN, p Perm, level int) uint64
	EncodeTable(pfn PFN) uint64
	IsPresent(pte uint64) bool
	IsLeaf(pte uint64, level int) bool
	PFNOf(pte uint64) PFN
	PermOf(pte uint64) Perm
	WithPerm(pte uint64, p Perm, level int) uint64
	Accessed(pte uint64) bool
	Dirty(pte uint64) bool
	SetAccessed(pte uint64) uint64
	SetDirty(pte uint64) uint64
	SupportsHugeAt(level int) bool
	WithProtKey(pte uint64, key ProtKey) uint64
	ProtKeyOf(pte uint64) ProtKey
}

// refX8664 implements refISA for x86-64 4-level paging. The zero
// value is the plain ISA; set EnableMPK for protection-key support.
type refX8664 struct {
	// EnableMPK turns on Intel memory-protection-key encoding in PTEs.
	EnableMPK bool
}

func (x refX8664) Name() string {
	if x.EnableMPK {
		return "x86_64+mpk"
	}
	return "x86_64"
}

func (x refX8664) EncodeLeaf(pfn PFN, p Perm, level int) uint64 {
	pte := uint64(pfn)<<PageShift&x86AddrMask | x86Present
	if level > 1 {
		pte |= x86Huge
	}
	return refX86ApplyPerm(pte, p)
}

// EncodeTable implements refISA. Non-leaf entries are maximally permissive;
// x86 access control intersects permissions along the walk, so real OSes
// (and CortenMM) keep upper levels open and restrict at the leaf.
func (x refX8664) EncodeTable(pfn PFN) uint64 {
	return uint64(pfn)<<PageShift&x86AddrMask | x86Present | x86Write | x86User
}

// IsPresent implements refISA. Mirrors pte_present in Linux: the HUGE bit
// also counts, because PROT_NONE mappings clear P but keep PS.
func (x refX8664) IsPresent(pte uint64) bool {
	return pte&x86Present != 0 || pte&x86Huge != 0
}

func (x refX8664) IsLeaf(pte uint64, level int) bool {
	if level == 1 {
		return true
	}
	return pte&x86Huge != 0
}

func (x refX8664) PFNOf(pte uint64) PFN { return PFN(pte & x86AddrMask >> PageShift) }

func (x refX8664) PermOf(pte uint64) Perm {
	var p Perm
	if pte&x86Present != 0 {
		p |= PermRead
	}
	if pte&x86Write != 0 {
		p |= PermWrite
	}
	if pte&x86NX == 0 {
		p |= PermExec
	}
	if pte&x86User != 0 {
		p |= PermUser
	}
	if pte&x86SWCOW != 0 {
		p |= PermCOW
	}
	if pte&x86SWShared != 0 {
		p |= PermShared
	}
	return p
}

func (x refX8664) WithPerm(pte uint64, p Perm, level int) uint64 {
	pte &^= x86Present | x86Write | x86User | x86SWCOW | x86SWShared | x86NX
	if level > 1 {
		pte |= x86Huge
	}
	return refX86ApplyPerm(pte, p)
}

func refX86ApplyPerm(pte uint64, p Perm) uint64 {
	if p&PermRead != 0 {
		pte |= x86Present
	}
	if p&PermWrite != 0 {
		pte |= x86Write
	}
	if p&PermExec == 0 {
		pte |= x86NX
	}
	if p&PermUser != 0 {
		pte |= x86User
	}
	if p&PermCOW != 0 {
		pte |= x86SWCOW
	}
	if p&PermShared != 0 {
		pte |= x86SWShared
	}
	return pte
}

func (x refX8664) Accessed(pte uint64) bool { return pte&x86Accessed != 0 }

func (x refX8664) Dirty(pte uint64) bool { return pte&x86Dirty != 0 }

func (x refX8664) SetAccessed(pte uint64) uint64 { return pte | x86Accessed }

func (x refX8664) SetDirty(pte uint64) uint64 { return pte | x86Dirty }

// SupportsHugeAt implements refISA: 2 MiB leaves at level 2, 1 GiB at level 3.
func (x refX8664) SupportsHugeAt(level int) bool { return level == 2 || level == 3 }

func (x refX8664) WithProtKey(pte uint64, key ProtKey) uint64 {
	if !x.EnableMPK {
		return pte
	}
	return pte&^x86PKeyMask | uint64(key&0xf)<<x86PKeyShift
}

func (x refX8664) ProtKeyOf(pte uint64) ProtKey {
	if !x.EnableMPK {
		return 0
	}
	return ProtKey(pte & x86PKeyMask >> x86PKeyShift)
}

// refRISCV implements refISA for RISC-V Sv48 paging.
type refRISCV struct{}

func (refRISCV) Name() string { return "riscv64" }

func (refRISCV) EncodeLeaf(pfn PFN, p Perm, level int) uint64 {
	pte := uint64(pfn)<<rvPFNShift&rvPFNMask | rvValid
	return refRVApplyPerm(pte, p)
}

// EncodeTable implements refISA: V set, R/W/X clear.
func (refRISCV) EncodeTable(pfn PFN) uint64 {
	return uint64(pfn)<<rvPFNShift&rvPFNMask | rvValid
}

func (refRISCV) IsPresent(pte uint64) bool { return pte&rvValid != 0 }

// IsLeaf implements refISA: leaf iff R, W or X is set.
func (refRISCV) IsLeaf(pte uint64, level int) bool {
	return pte&(rvRead|rvWrite|rvExec) != 0
}

func (refRISCV) PFNOf(pte uint64) PFN { return PFN(pte & rvPFNMask >> rvPFNShift) }

func (refRISCV) PermOf(pte uint64) Perm {
	var p Perm
	if pte&rvRead != 0 {
		p |= PermRead
	}
	if pte&rvWrite != 0 {
		p |= PermWrite
	}
	if pte&rvExec != 0 {
		p |= PermExec
	}
	if pte&rvUser != 0 {
		p |= PermUser
	}
	if pte&rvSWCOW != 0 {
		p |= PermCOW
	}
	if pte&rvSWShared != 0 {
		p |= PermShared
	}
	return p
}

func (refRISCV) WithPerm(pte uint64, p Perm, level int) uint64 {
	pte &^= rvRead | rvWrite | rvExec | rvUser | rvSWCOW | rvSWShared
	return refRVApplyPerm(pte, p)
}

func refRVApplyPerm(pte uint64, p Perm) uint64 {
	if p&PermRead != 0 {
		pte |= rvRead
	}
	if p&PermWrite != 0 {
		pte |= rvWrite
	}
	if p&PermExec != 0 {
		pte |= rvExec
	}
	if p&PermUser != 0 {
		pte |= rvUser
	}
	if p&PermCOW != 0 {
		pte |= rvSWCOW
	}
	if p&PermShared != 0 {
		pte |= rvSWShared
	}
	return pte
}

func (refRISCV) Accessed(pte uint64) bool { return pte&rvAccessed != 0 }

func (refRISCV) Dirty(pte uint64) bool { return pte&rvDirty != 0 }

func (refRISCV) SetAccessed(pte uint64) uint64 { return pte | rvAccessed }

func (refRISCV) SetDirty(pte uint64) uint64 { return pte | rvDirty }

// SupportsHugeAt implements refISA: Sv48 allows leaves at levels 2-4; we cap
// at level 3 (1 GiB) to match the page sizes CortenMM supports.
func (refRISCV) SupportsHugeAt(level int) bool { return level == 2 || level == 3 }

// WithProtKey implements refISA; RISC-V has no MPK so the entry is unchanged.
func (refRISCV) WithProtKey(pte uint64, key ProtKey) uint64 { return pte }

func (refRISCV) ProtKeyOf(pte uint64) ProtKey { return 0 }

// refARM64 implements refISA for AArch64 VMSAv8-64 paging with
// a 4 KiB granule. The paper lists ARM as a target ISA whose MMU meets
// CortenMM's assumptions (§4.4); this codec is the port.
type refARM64 struct{}

func (refARM64) Name() string { return "arm64" }

// EncodeLeaf implements refISA. Level-1 leaves are page descriptors
// (type bit set); levels 2-3 are block descriptors (type bit clear).
func (refARM64) EncodeLeaf(pfn PFN, p Perm, level int) uint64 {
	pte := uint64(pfn)<<PageShift&a64AddrMask | a64Valid
	if level == 1 {
		pte |= a64Type
	}
	return refA64ApplyPerm(pte, p)
}

func (refARM64) EncodeTable(pfn PFN) uint64 {
	return uint64(pfn)<<PageShift&a64AddrMask | a64Valid | a64Type
}

func (refARM64) IsPresent(pte uint64) bool { return pte&a64Valid != 0 }

// IsLeaf implements refISA: at level 1 a valid descriptor is a page; at
// upper levels the type bit distinguishes table from block.
func (refARM64) IsLeaf(pte uint64, level int) bool {
	if level == 1 {
		return true
	}
	return pte&a64Type == 0
}

func (refARM64) PFNOf(pte uint64) PFN { return PFN(pte & a64AddrMask >> PageShift) }

func (refARM64) PermOf(pte uint64) Perm {
	var p Perm
	if pte&a64Valid != 0 {
		p |= PermRead
	}
	if pte&a64SWWr != 0 {
		p |= PermWrite
	}
	if pte&a64UXN == 0 {
		p |= PermExec
	}
	if pte&a64User != 0 {
		p |= PermUser
	}
	if pte&a64SWCOW != 0 {
		p |= PermCOW
	}
	if pte&a64SWShrd != 0 {
		p |= PermShared
	}
	return p
}

func (refARM64) WithPerm(pte uint64, p Perm, level int) uint64 {
	pte &^= a64Valid | a64RO | a64User | a64UXN | a64PXN | a64SWCOW | a64SWShrd | a64SWWr | a64DBM
	if level == 1 {
		pte |= a64Type
	} else {
		pte &^= a64Type
	}
	return refA64ApplyPerm(pte, p)
}

func refA64ApplyPerm(pte uint64, p Perm) uint64 {
	if p&PermRead != 0 {
		pte |= a64Valid
	}
	if p&PermWrite != 0 {
		pte |= a64SWWr | a64DBM
	} else {
		pte |= a64RO
	}
	if p&PermExec == 0 {
		pte |= a64UXN | a64PXN
	}
	if p&PermUser != 0 {
		pte |= a64User
	}
	if p&PermCOW != 0 {
		pte |= a64SWCOW
	}
	if p&PermShared != 0 {
		pte |= a64SWShrd
	}
	return pte
}

// Accessed implements refISA (hardware AF).
func (refARM64) Accessed(pte uint64) bool { return pte&a64AF != 0 }

// Dirty implements refISA (software dirty bit; see layout comment).
func (refARM64) Dirty(pte uint64) bool { return pte&a64SWDirt != 0 }

func (refARM64) SetAccessed(pte uint64) uint64 { return pte | a64AF }

func (refARM64) SetDirty(pte uint64) uint64 { return pte | a64SWDirt }

// SupportsHugeAt implements refISA: 2 MiB and 1 GiB blocks.
func (refARM64) SupportsHugeAt(level int) bool { return level == 2 || level == 3 }

// WithProtKey implements refISA; ARM has no MPK (POE is out of scope).
func (refARM64) WithProtKey(pte uint64, key ProtKey) uint64 { return pte }

func (refARM64) ProtKeyOf(pte uint64) ProtKey { return 0 }

// TestCodecMatchesReference checks every codec method of the four
// configurations against the reference codecs, bit for bit, over random
// words, levels 1-4, all 64 permission values (with random high bits,
// which both ignore) and keys 0-31.
func TestCodecMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		got ISA
		ref refISA
	}{
		{X8664(false), refX8664{}},
		{X8664(true), refX8664{EnableMPK: true}},
		{RISCV(), refRISCV{}},
		{ARM64(), refARM64{}},
	} {
		c, r := tc.got, tc.ref
		if c.Name() != r.Name() {
			t.Errorf("Name = %q, want %q", c.Name(), r.Name())
		}
		for level := 0; level <= Levels+1; level++ {
			if c.SupportsHugeAt(level) != r.SupportsHugeAt(level) {
				t.Errorf("%s: SupportsHugeAt(%d) = %v", r.Name(), level, c.SupportsHugeAt(level))
			}
		}
		rng := rand.New(rand.NewSource(1))
		fails := 0
		check := func(what string, w uint64, got, want any) {
			if got != want && fails < 10 {
				fails++
				t.Errorf("%s: %s of %#x = %#x, want %#x", r.Name(), what, w, got, want)
			}
		}
		const words = 200_000
		for i := 0; i < words; i++ {
			w := rng.Uint64()
			pfn := PFN(rng.Uint64())
			p := Perm(i%64) | Perm(rng.Intn(1<<16))&^63
			key := ProtKey(i / 64 % 32)
			check("IsPresent", w, c.IsPresent(w), r.IsPresent(w))
			check("PFNOf", w, c.PFNOf(w), r.PFNOf(w))
			check("PermOf", w, c.PermOf(w), r.PermOf(w))
			check("Shared", w, c.Shared(w), r.PermOf(w)&PermShared != 0)
			check("Accessed", w, c.Accessed(w), r.Accessed(w))
			check("Dirty", w, c.Dirty(w), r.Dirty(w))
			check("SetAccessed", w, c.SetAccessed(w), r.SetAccessed(w))
			check("SetDirty", w, c.SetDirty(w), r.SetDirty(w))
			check("WithProtKey", w, c.WithProtKey(w, key), r.WithProtKey(w, key))
			check("ProtKeyOf", w, c.ProtKeyOf(w), r.ProtKeyOf(w))
			check("EncodeTable", uint64(pfn), c.EncodeTable(pfn), r.EncodeTable(pfn))
			for level := 1; level <= Levels; level++ {
				check("IsLeaf", w, c.IsLeaf(w, level), r.IsLeaf(w, level))
				check("WithPerm", w, c.WithPerm(w, p, level), r.WithPerm(w, p, level))
				check("EncodeLeaf", uint64(pfn), c.EncodeLeaf(pfn, p, level), r.EncodeLeaf(pfn, p, level))
				leaf := r.WithProtKey(r.EncodeLeaf(pfn, p, level), key)
				check("PermOf(leaf)", leaf, c.PermOf(leaf), r.PermOf(leaf))
				check("IsLeaf(leaf)", leaf, c.IsLeaf(leaf, level), r.IsLeaf(leaf, level))
				check("ProtKeyOf(leaf)", leaf, c.ProtKeyOf(leaf), r.ProtKeyOf(leaf))
			}
		}
	}
}
