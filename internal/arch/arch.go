// Package arch abstracts the page-table formats of the ISAs CortenMM
// targets (x86-64, RISC-V Sv48 and AArch64), mirroring how the paper
// hides MMU differences behind a Rust trait (Figure 9).
//
// All supported ISAs share the same radix-tree geometry — 4 levels,
// 512 entries per level, 4 KiB base pages, 48-bit virtual addresses —
// which is exactly the observation CortenMM builds on: the software-level
// abstraction is unnecessary because mainstream MMUs are nearly identical.
// The geometry therefore lives here as package-level constants, and the
// PTE bit layouts differ per ISA only as tables of masks (codec.go).
package arch

import "fmt"

// Shared radix-tree geometry. Level 1 is the leaf page table (each entry
// maps one 4 KiB page); level 4 is the root.
const (
	// PageShift is log2 of the base page size.
	PageShift = 12
	// PageSize is the base page size in bytes.
	PageSize = 1 << PageShift
	// IndexBits is log2 of the number of entries in one PT page.
	IndexBits = 9
	// PTEntries is the number of entries in one page-table page.
	PTEntries = 1 << IndexBits
	// Levels is the depth of the page table; level 1 = leaf, Levels = root.
	Levels = 4
	// VABits is the number of significant virtual-address bits.
	VABits = PageShift + IndexBits*Levels // 48
)

// Vaddr is a virtual address in the simulated address space.
type Vaddr uint64

// PFN is a physical frame number (physical address >> PageShift).
type PFN uint64

// NoPFN is the sentinel for "no frame".
const NoPFN = PFN(^uint64(0))

// Perm describes access permissions plus the software bits CortenMM keeps
// in the PTE (the paper's "first unused bit as copy-on-write", §4.2).
type Perm uint16

const (
	// PermRead allows load accesses.
	PermRead Perm = 1 << iota
	// PermWrite allows store accesses.
	PermWrite
	// PermExec allows instruction fetches.
	PermExec
	// PermUser allows user-mode access.
	PermUser
	// PermCOW marks a copy-on-write page (software bit).
	PermCOW
	// PermShared marks a page shared between address spaces (software bit).
	PermShared
)

// PermRW is the common read+write permission.
const PermRW = PermRead | PermWrite

// PermRWX grants read, write and execute.
const PermRWX = PermRead | PermWrite | PermExec

// Contains reports whether every bit in q is set in p.
func (p Perm) Contains(q Perm) bool { return p&q == q }

// String renders the permission like "rwxu" with software bits suffixed.
func (p Perm) String() string {
	b := []byte("----")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	if p&PermUser != 0 {
		b[3] = 'u'
	}
	s := string(b)
	if p&PermCOW != 0 {
		s += "+cow"
	}
	if p&PermShared != 0 {
		s += "+shared"
	}
	return s
}

// ProtKey is an Intel MPK protection key (0-15). Keys are an optional MMU
// feature; ISAs that support them encode the key in spare PTE bits.
type ProtKey uint8

// MaxProtKey is the largest valid protection key.
const MaxProtKey ProtKey = 15

// IndexAt returns the PT-page index of va at the given level (1..Levels).
func IndexAt(va Vaddr, level int) int {
	return int(uint64(va) >> SpanShift(level-1) & (PTEntries - 1))
}

// SpanShift returns log2 of the bytes covered by one entry at the given
// level: level 0 is a byte offset, level 1 entries cover 4 KiB, etc.
func SpanShift(level int) uint {
	return PageShift + IndexBits*uint(level)
}

// SpanBytes returns the bytes covered by one entry at the given level.
func SpanBytes(level int) uint64 { return 1 << (PageShift + IndexBits*uint(level-1)) }

// PageAlignDown rounds va down to a base-page boundary.
func PageAlignDown(va Vaddr) Vaddr { return va &^ (PageSize - 1) }

// PageAlignUp rounds va up to a base-page boundary.
func PageAlignUp(va Vaddr) Vaddr { return (va + PageSize - 1) &^ (PageSize - 1) }

// IsPageAligned reports whether va is a multiple of the base page size.
func IsPageAligned(va Vaddr) bool { return va&(PageSize-1) == 0 }

// MaxVaddr is one past the largest representable virtual address.
const MaxVaddr = Vaddr(1) << VABits

// CheckCanonical validates that [va, va+size) lies inside the address
// space and is page-aligned.
func CheckCanonical(va Vaddr, size uint64) error {
	if !IsPageAligned(va) || size%PageSize != 0 {
		return fmt.Errorf("arch: range %#x+%#x not page aligned", va, size)
	}
	if size == 0 {
		return fmt.Errorf("arch: empty range at %#x", va)
	}
	if uint64(va)+size > uint64(MaxVaddr) || uint64(va)+size < uint64(va) {
		return fmt.Errorf("arch: range %#x+%#x exceeds %d-bit address space", va, size, VABits)
	}
	return nil
}
