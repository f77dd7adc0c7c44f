package pt

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
)

// Access is the type of a simulated memory access.
type Access uint8

const (
	// AccessRead is a load.
	AccessRead Access = iota
	// AccessWrite is a store.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

// Needs returns the permission the access requires.
func (a Access) Needs() arch.Perm {
	switch a {
	case AccessWrite:
		return arch.PermWrite
	case AccessExec:
		return arch.PermExec
	}
	return arch.PermRead
}

// String names the access type.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// Walk performs a lock-free page-table walk and returns the leaf entry
// covering va, the level it was found at, and whether a present leaf
// exists. This mirrors what the hardware (and the CortenMM_adv traversal
// phase) does: a chain of atomic PTE loads.
func (t *Tree) Walk(va arch.Vaddr) (pte uint64, level int, ok bool) {
	cur := t.Root
	for level = arch.Levels; level >= 1; level-- {
		e := t.LoadPTE(cur, arch.IndexAt(va, level))
		if !t.ISA.IsPresent(e) {
			return 0, level, false
		}
		if t.ISA.IsLeaf(e, level) {
			return e, level, true
		}
		cur = t.ISA.PFNOf(e)
	}
	return 0, 0, false
}

// Slot descends lock-free, as Walk does, to the level-`level` PT page
// covering va and returns it with va's entry index there — level 1 for
// the slot a 4-KiB mapping of va lives in, level 2 for the entry that
// links its leaf table. ok is false when a table on the way is absent
// or va is covered by a huge leaf above level.
func (t *Tree) Slot(va arch.Vaddr, level int) (pfn arch.PFN, idx int, ok bool) {
	pfn = t.Root
	for l := arch.Levels; l > level; l-- {
		e := t.LoadPTE(pfn, arch.IndexAt(va, l))
		if !t.ISA.IsPresent(e) || t.ISA.IsLeaf(e, l) {
			return 0, 0, false
		}
		pfn = t.ISA.PFNOf(e)
	}
	return pfn, arch.IndexAt(va, level), true
}

// EnsureSlot is Slot(va, 1) for a writer that excludes every other
// writer of the tree (a replica's coarse lock): the tables missing on
// the way down are allocated on behalf of core and linked. The tree
// must hold no huge leaves.
func (t *Tree) EnsureSlot(core int, va arch.Vaddr) (pfn arch.PFN, idx int, err error) {
	pfn = t.Root
	for l := arch.Levels; l > 1; l-- {
		i := arch.IndexAt(va, l)
		e := t.LoadPTE(pfn, i)
		if !t.ISA.IsPresent(e) {
			child, err := t.AllocPTPage(core, l-1)
			if err != nil {
				return 0, 0, err
			}
			e = t.ISA.EncodeTable(child)
			t.SetPTE(pfn, i, e)
		}
		pfn = t.ISA.PFNOf(e)
	}
	return pfn, arch.IndexAt(va, 1), nil
}

// Translation is the result of a successful simulated MMU access.
type Translation struct {
	// PFN is the 4-KiB frame va falls in (offset applied for huge leaves).
	PFN arch.PFN
	// Perm is the leaf permission.
	Perm arch.Perm
	// Level is the leaf level (1, 2 or 3).
	Level int
	// Page is the frame's host bytes when whoever produced the
	// translation had them at hand, nil otherwise (WalkAccess never
	// does). A TLB hit on a 4-KiB entry returns the page its fill
	// stored, so the access skips the descriptor chain.
	Page *[arch.PageSize]byte
}

// WalkAccess simulates the MMU servicing an access: walk, permission
// check, and accessed/dirty bit updates via CAS (as hardware does,
// without any software lock). Returns ok=false when the access must
// fault — either nothing is mapped or permissions are insufficient
// (including a write to a COW page, which is mapped read-only).
func (t *Tree) WalkAccess(va arch.Vaddr, acc Access) (Translation, bool) {
	cur, isa := t.Root, t.ISA
	for level := arch.Levels; level >= 1; {
		idx := arch.IndexAt(va, level)
		pte := t.LoadPTE(cur, idx)
		if !isa.IsPresent(pte) {
			return Translation{}, false
		}
		if !isa.IsLeaf(pte, level) {
			cur = isa.PFNOf(pte)
			level--
			continue
		}
		perm := isa.PermOf(pte)
		if !perm.Contains(acc.Needs()) {
			return Translation{}, false
		}
		upd := isa.SetAccessed(pte)
		if acc == AccessWrite {
			upd = isa.SetDirty(upd)
		}
		if upd != pte && !t.CASPTE(cur, idx, pte, upd) {
			continue // raced with a concurrent update; re-read this level
		}
		// Huge leaves translate with the low VA bits as a frame offset.
		pageInSpan := uint64(va) >> arch.PageShift & (arch.SpanBytes(level)/arch.PageSize - 1)
		return Translation{
			PFN:   isa.PFNOf(pte) + arch.PFN(pageInSpan),
			Perm:  perm,
			Level: level,
		}, true
	}
	return Translation{}, false
}

// CheckWellFormed verifies the Figure-12 invariant over the whole tree:
// every present non-leaf entry points to a live PT page of exactly one
// level lower, leaves appear only at levels the ISA allows, no PT page is
// reachable twice, no reachable page is stale, and the Present/MetaCnt
// counters match the actual contents. The tree must be quiescent.
func (t *Tree) CheckWellFormed() error {
	seen := make(map[arch.PFN]bool)
	return t.checkPage(t.Root, arch.Levels, seen)
}

func (t *Tree) checkPage(pfn arch.PFN, level int, seen map[arch.PFN]bool) error {
	if seen[pfn] {
		return fmt.Errorf("pt: PT page %#x reachable twice", pfn)
	}
	seen[pfn] = true
	d := t.Phys.Desc(pfn)
	if d.Kind != mem.KindPT {
		return fmt.Errorf("pt: level-%d page %#x has kind %v", level, pfn, d.Kind)
	}
	if d.Ref.Load() < 1 {
		return fmt.Errorf("pt: PT page %#x has refcount %d", pfn, d.Ref.Load())
	}
	st, ok := d.PT.(*PageState)
	if !ok || st == nil {
		return fmt.Errorf("pt: PT page %#x lacks PageState", pfn)
	}
	if int(st.Level) != level {
		return fmt.Errorf("pt: PT page %#x level %d, expected %d", pfn, st.Level, level)
	}
	if st.Stale.Load() {
		return fmt.Errorf("pt: reachable PT page %#x is stale", pfn)
	}
	var present, metaCnt int32
	if st.Meta != nil {
		for i, w := range st.Meta {
			if !t.WordOK(w) {
				return fmt.Errorf("pt: page %#x meta[%d] holds malformed status word %#x (%+v)", pfn, i, w, Unpack(w))
			}
			if w != 0 {
				metaCnt++
			}
		}
	}
	for i := 0; i < arch.PTEntries; i++ {
		pte := t.LoadPTE(pfn, i)
		if !t.ISA.IsPresent(pte) {
			continue
		}
		present++
		if t.ISA.IsLeaf(pte, level) {
			if level != 1 && !t.ISA.SupportsHugeAt(level) {
				return fmt.Errorf("pt: leaf at unsupported level %d (page %#x[%d])", level, pfn, i)
			}
			target := t.ISA.PFNOf(pte)
			head := t.Phys.HeadOf(target)
			td := t.Phys.Desc(head)
			if td.Kind == mem.KindFree || td.Kind == mem.KindPT {
				return fmt.Errorf("pt: leaf %#x[%d] maps %v frame %#x", pfn, i, td.Kind, target)
			}
			continue
		}
		if level == 1 {
			return fmt.Errorf("pt: non-leaf entry at level 1 (%#x[%d])", pfn, i)
		}
		child := t.ISA.PFNOf(pte)
		if err := t.checkPage(child, level-1, seen); err != nil {
			return err
		}
	}
	if present != st.Present {
		return fmt.Errorf("pt: page %#x Present=%d, actual %d", pfn, st.Present, present)
	}
	if metaCnt != st.MetaCnt {
		return fmt.Errorf("pt: page %#x MetaCnt=%d, actual %d", pfn, st.MetaCnt, metaCnt)
	}
	return nil
}
