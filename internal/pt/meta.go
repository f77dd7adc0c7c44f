package pt

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// StatusKind enumerates the states of a virtual page (the variants of the
// paper's Status enum, Figure 4).
type StatusKind uint8

const (
	// StatusInvalid: nothing is allocated at this address.
	StatusInvalid StatusKind = iota
	// StatusMapped: a physical page is mapped (encoded in the PTE; this
	// kind appears in query results, never in metadata arrays).
	StatusMapped
	// StatusPrivateAnon: virtually allocated private anonymous memory,
	// not yet backed by a physical page (on-demand paging).
	StatusPrivateAnon
	// StatusPrivateFile: a private file mapping not yet faulted in.
	StatusPrivateFile
	// StatusSharedAnon: shared anonymous memory (named within the kernel,
	// §4.5), not yet faulted in.
	StatusSharedAnon
	// StatusSharedFile: a shared file mapping not yet faulted in.
	StatusSharedFile
	// StatusSwapped: the page content lives on a swap block device.
	StatusSwapped
)

// String names the status kind.
func (k StatusKind) String() string {
	switch k {
	case StatusInvalid:
		return "invalid"
	case StatusMapped:
		return "mapped"
	case StatusPrivateAnon:
		return "private-anon"
	case StatusPrivateFile:
		return "private-file"
	case StatusSharedAnon:
		return "shared-anon"
	case StatusSharedFile:
		return "shared-file"
	case StatusSwapped:
		return "swapped"
	}
	return fmt.Sprintf("status(%d)", uint8(k))
}

// Status is the state of one virtual page (or of a whole entry span when
// stored at an upper level): the paper's Status enum, as callers build
// and read it. For Mapped it carries the frame; for file kinds the file
// and the page index the *start* of the entry's span maps to; for Swapped
// the device and block. It is a value of four pointer-free fields on
// purpose: Go keeps a struct of more than four fields out of registers
// (cmd/compile/internal/ssa.MaxStruct), and a nine-field record cost
// 15.6 ns per get-and-use round trip against 2.8 ns for this one.
// Everything beyond Kind and Perm sits behind the constructors and
// accessors below; what a PT page stores is the packed word (Tree.Pack).
type Status struct {
	Kind StatusKind
	Perm arch.Perm
	// attr is the MPK key | huge level << 8 | object id << 16.
	attr uint32
	// val is the mapped frame, the file page index, or the swap block.
	val uint64
}

// MappedStatus is the status of a resident page: what Query and Iterate
// report for a present leaf at the given level (its HugeLevel, unless 1).
func MappedStatus(frame arch.PFN, perm arch.Perm, key arch.ProtKey, level int) Status {
	s := Status{Kind: StatusMapped, Perm: perm, attr: uint32(key), val: uint64(frame)}
	if level > 1 {
		s.attr |= uint32(level) << 8
	}
	return s
}

// FileStatus is the status of a not-resident page of f — kind
// PrivateFile, SharedFile or SharedAnon — whose first page is f's page
// off. The file must be mapped (registered) for Mark to accept it.
func FileStatus(kind StatusKind, perm arch.Perm, f *mem.File, off uint64) Status {
	return Status{Kind: kind, Perm: perm, attr: f.ID() << 16, val: off}
}

// SwappedStatus is the status of a page whose content is block of the
// swap device registered as dev (mem.PhysMem.RegisterDev).
func SwappedStatus(perm arch.Perm, dev uint32, block uint64) Status {
	return Status{Kind: StatusSwapped, Perm: perm, attr: dev << 16, val: block}
}

// WithKey returns s tagged with an MPK protection key.
func (s Status) WithKey(key arch.ProtKey) Status {
	s.attr = s.attr&^0xff | uint32(key)
	return s
}

// WithHuge returns s asking the fault handler to back its span with huge
// pages of the given level (2 or 3; 0 for none).
func (s Status) WithHuge(level int8) Status {
	s.attr = s.attr&^0xff00 | uint32(uint8(level))<<8
	return s
}

// Key is the MPK protection key.
func (s Status) Key() arch.ProtKey { return arch.ProtKey(s.attr) }

// HugeLevel is the huge-page level asked for (metadata) or backing the
// page (Mapped); 0 for 4-KiB pages.
func (s Status) HugeLevel() int { return int(uint8(s.attr >> 8)) }

// Page is the mapped frame (StatusMapped only).
func (s Status) Page() arch.PFN { return arch.PFN(s.val) }

// Off is the file page index (file kinds only).
func (s Status) Off() uint64 { return s.val }

// Block is the swap block (StatusSwapped only).
func (s Status) Block() uint64 { return s.val }

// File resolves the file a file-kind status names on machine m.
func (s Status) File(m *mem.PhysMem) *mem.File { return m.FileByID(s.attr >> 16) }

// Dev resolves the swap device a Swapped status names on machine m.
func (s Status) Dev(m *mem.PhysMem) *mem.BlockDev { return m.DevByID(s.attr >> 16) }

// Allocated reports whether the page is backed by *something* (not
// Invalid), i.e. an access should not segfault outright.
func (s Status) Allocated() bool { return s.Kind != StatusInvalid }

// SlidBy returns the status for a sub-span starting pages pages into the
// span s describes; file offsets and mapped frames advance, everything
// else is unchanged. This is how an upper-level status is pushed down on
// a split, and how a range iterator extends a run: run statuses are
// "sliding" — page i of a run has status SlidBy(i). (Mapped never
// appears in metadata arrays; its case serves query/iterate results,
// where physically contiguous pages coalesce into one run.)
func (s Status) SlidBy(pages uint64) Status {
	if s.Kind == StatusMapped || s.Kind.file() {
		s.val += pages
	}
	return s
}

// file reports whether k names its pages by (file, page index).
func (k StatusKind) file() bool { return k >= StatusPrivateFile && k <= StatusSharedFile }

// The status word: what one entry of a metadata array stores. An
// all-zero word is an empty entry; the payload is the top field, so
// sliding a span is an add that can carry into nothing.
//
//	bits  0-2   kind      (StatusKind; Mapped is never stored)
//	bits  3-8   perm      (the six arch.Perm bits)
//	bits  9-12  key       (0..arch.MaxProtKey)
//	bits 13-14  huge      (0, 2 or 3)
//	bits 15-19  reserved  (zero)
//	bits 20-31  object    (1..mem.MaxObjID; 0 for anonymous kinds)
//	bits 32-63  payload   (file page index or swap block)
const (
	kindMask                   = 7
	permShift, permMax         = 3, 0x3f
	keyShift, keyMax           = 9, 0xf
	hugeShift, hugeMax         = 13, 3
	reservedMask               = 0x1f << 15
	objShift                   = 20
	payloadShift, payloadLimit = 32, 1 << 32
)

// word packs s without checking it; fields beyond their width are cut.
func (s Status) word() uint64 {
	return uint64(s.Kind)&kindMask | uint64(s.Perm&permMax)<<permShift |
		uint64(s.attr&keyMax)<<keyShift | uint64(s.attr>>8&hugeMax)<<hugeShift |
		uint64(s.attr>>16&mem.MaxObjID)<<objShift | s.val<<payloadShift
}

// Unpack decodes a status word.
func Unpack(w uint64) Status {
	return Status{
		Kind: StatusKind(w & kindMask),
		Perm: arch.Perm(w >> permShift & permMax),
		attr: uint32(w>>keyShift&keyMax | w>>hugeShift&hugeMax<<8 | w>>objShift&mem.MaxObjID<<16),
		val:  w >> payloadShift,
	}
}

// Slide is SlidBy on the word: the add that moves a file span's payload.
func Slide(w, pages uint64) uint64 {
	if StatusKind(w & kindMask).file() {
		w += pages << payloadShift
	}
	return w
}

// PermEdit and KeyEdit are the (field, bits) pairs Tree.EditMeta takes to
// give allocated entries a new permission or protection key.
func PermEdit(p arch.Perm) (field, bits uint64) { return permMax << permShift, uint64(p) << permShift }

// KeyEdit: see PermEdit.
func KeyEdit(k arch.ProtKey) (field, bits uint64) { return keyMax << keyShift, uint64(k) << keyShift }

// MetaArray is the per-PTE metadata array of one PT page (§3.3), indexed
// by PTE offset: one status word beside each 8-byte PTE, so a fully
// populated array doubles the PT page and holds nothing the collector
// scans.
type MetaArray [arch.PTEntries]uint64
