package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Mremap resizes the mapping at oldVA (MREMAP_MAYMOVE semantics):
// shrinking unmaps the tail in place; growing allocates a fresh range
// and *moves* every page there — PTEs, metadata (including swap
// entries), frames and their reference counts travel without copying
// data. The move runs under two simultaneously held transactions, one
// per range, acquired in address order so concurrent Mremaps cannot
// deadlock against each other.
func (a *AddrSpace) Mremap(core int, oldVA arch.Vaddr, oldSize, newSize uint64) (arch.Vaddr, error) {
	if err := a.checkRange(core, oldVA, oldSize); err != nil {
		return 0, err
	}
	newSize = (newSize + arch.PageSize - 1) &^ (arch.PageSize - 1)
	if newSize == 0 {
		return 0, fmt.Errorf("%w: zero new size", mm.ErrBadRange)
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)

	if newSize <= oldSize {
		// Shrink in place: the cut tail is an ordinary unmap.
		if newSize < oldSize {
			if err := a.unmapRange(core, oldVA+arch.Vaddr(newSize), oldSize-newSize); err != nil {
				return 0, err
			}
		}
		return oldVA, nil
	}

	// Grow: move to a fresh range.
	newVA, err := a.valloc.Alloc(core, newSize)
	if err != nil {
		return 0, err
	}
	if overlap(oldVA, oldSize, newVA, newSize) {
		a.valloc.Free(core, newVA, newSize)
		return 0, fmt.Errorf("%w: allocator returned overlapping range", mm.ErrBadRange)
	}

	// One transaction spans both ranges: its covering page is their
	// lowest common ancestor. Two separate cursors could self-deadlock
	// when one covering page contains the other; a single wider lock is
	// also what Linux's mremap does (the mmap_lock writer).
	lo := minVA(oldVA, newVA)
	hi := maxVA(oldVA+arch.Vaddr(oldSize), newVA+arch.Vaddr(newSize))
	c, err := a.Lock(core, lo, hi)
	if err != nil {
		return 0, err
	}
	// The old range's VAs are recycled immediately after; their
	// translations must die everywhere before the move returns.
	c.needSync = true

	// One pass enumerates the old range as runs; the moves mutate both
	// ranges, so they happen after the iteration. tailPerm — the
	// permission for the newly grown pages — comes from the first
	// allocated run (Linux grows the mapping with the VMA's protection;
	// our analog is the recorded or mapped permission).
	var runs []Run
	var allocated uint64
	if err := c.Iterate(oldVA, oldVA+arch.Vaddr(oldSize), func(r Run) error {
		runs = append(runs, r)
		allocated += r.Pages
		return nil
	}); err != nil {
		c.Close()
		return 0, err
	}
	tailPerm := arch.PermRW
	if len(runs) > 0 {
		tailPerm = logicalPerm(runs[0].Status.Perm) &^ (arch.PermCOW | arch.PermShared)
	}
	for _, r := range runs {
		dst := newVA + (r.VA - oldVA)
		var err error
		switch {
		case r.Status.Kind == pt.StatusMapped && r.Status.HugeLevel() >= 2:
			// Huge leaves move via split paths, which TakePage refuses.
			err = fmt.Errorf("core: page vanished during mremap")
		case r.Status.Kind == pt.StatusMapped:
			for i := uint64(0); i < r.Pages && err == nil; i++ {
				src := r.VA + arch.Vaddr(i*arch.PageSize)
				frame, perm, key, ok := c.TakePage(src)
				if !ok {
					err = fmt.Errorf("core: page vanished during mremap")
				} else {
					err = c.PlacePage(dst+arch.Vaddr(i*arch.PageSize), frame, perm, key)
				}
			}
		case r.Status.Kind == pt.StatusSwapped:
			// Swap entries move as metadata; clear the source without
			// releasing the block — the destination keeps it. (Swap runs
			// are single pages: every block is distinct.)
			if err = c.Mark(dst, dst+arch.Vaddr(r.Pages*arch.PageSize), r.Status); err == nil {
				err = c.clearMeta(r.VA, r.End())
			}
		default:
			// Not-resident virtual/file state: one Mark per run at the
			// destination, one wipe at the source. Mark with Invalid
			// only drops metadata here — the run holds no mappings and
			// no swap blocks.
			if err = c.Mark(dst, dst+arch.Vaddr(r.Pages*arch.PageSize), r.Status); err == nil {
				err = c.Mark(r.VA, r.End(), pt.Status{})
			}
		}
		if err != nil {
			c.Close()
			return 0, err
		}
	}
	// The grown tail is fresh on-demand memory.
	if err := c.Mark(newVA+arch.Vaddr(oldSize), newVA+arch.Vaddr(newSize),
		pt.Status{Kind: pt.StatusPrivateAnon, Perm: tailPerm}); err != nil {
		c.Close()
		return 0, err
	}
	// A moved file mapping is still mapped, so its file keeps this space
	// as a mapper and its reverse-map record moves with it, inside the
	// transaction: left behind, the old range's next tenant would retire
	// the record, and with it the object id the moved statuses name.
	a.moveFileMappings(oldVA, oldVA+arch.Vaddr(oldSize), newVA)
	c.Close()

	// Retire the old range's address space under munmapFinish's rule:
	// every page of it was allocated and has moved out. Only the VA half
	// of that tail applies.
	if allocated == oldSize/arch.PageSize {
		a.valloc.Free(core, oldVA, oldSize)
	}
	return newVA, nil
}

func overlap(aVA arch.Vaddr, aSz uint64, bVA arch.Vaddr, bSz uint64) bool {
	return aVA < bVA+arch.Vaddr(bSz) && bVA < aVA+arch.Vaddr(aSz)
}

// TakePage detaches the mapped 4-KiB page at va, returning its frame
// with the reference and mapcount still held — the caller must PlacePage
// it (or release it manually). The translation is queued for
// invalidation. ok is false, and nothing changes, when va is outside the
// transaction or holds no 4-KiB leaf (huge leaves move via split paths).
func (c *RCursor) TakePage(va arch.Vaddr) (frame arch.PFN, perm arch.Perm, key arch.ProtKey, ok bool) {
	e, err := c.entry(va, 1, false)
	isa := c.a.isa
	if err != nil || e.level != 1 || !isa.IsPresent(e.pte) {
		return 0, 0, 0, false
	}
	c.a.tree.SetPTE(e.pfn, e.idx, 0)
	c.noteFlush(e.lo(va), 1)
	return isa.PFNOf(e.pte), isa.PermOf(e.pte), isa.ProtKeyOf(e.pte), true
}

// PlacePage installs a frame detached by TakePage at va: Map's install,
// except that reference and mapcount were never dropped, so it takes no
// new ones — an exclusive anonymous page only has its migration hint
// moved to va.
func (c *RCursor) PlacePage(va arch.Vaddr, frame arch.PFN, perm arch.Perm, key arch.ProtKey) error {
	return c.install(va, frame, 1, perm, key, true)
}

// clearMeta wipes the metadata entries of every page in [lo, hi),
// splitting upper-level spans as needed, WITHOUT releasing resources the
// statuses reference (unlike dropMeta) — used when they moved elsewhere.
func (c *RCursor) clearMeta(lo, hi arch.Vaddr) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	t := c.a.tree
	v := walkOps{
		onMeta: func(pfn arch.PFN, idx, _ int, _, _, _ arch.Vaddr) error {
			t.SetMetaWord(pfn, idx, 0)
			return nil
		},
	}
	return c.walk(&v, lo, hi)
}
