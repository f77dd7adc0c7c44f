package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Mremap resizes the mapping at oldVA (MREMAP_MAYMOVE semantics):
// shrinking unmaps the tail in place through the syscalls' exec (the
// munmap body and its VA-recycle tail); growing allocates a fresh range
// and *moves* every page there — PTEs, metadata (including swap
// entries), frames and their reference counts travel without copying
// data. The move runs under one transaction spanning both ranges. A grow
// is all or nothing, and retried after direct reclaim like every other
// allocating call; a space the OOM killer tore down can only shrink.
func (a *AddrSpace) Mremap(core int, oldVA arch.Vaddr, oldSize, newSize uint64) (arch.Vaddr, error) {
	if err := a.checkRange(core, oldVA, oldSize); err != nil {
		return 0, err
	}
	newSize = (newSize + arch.PageSize - 1) &^ (arch.PageSize - 1)
	if newSize == 0 {
		return 0, fmt.Errorf("%w: zero new size", mm.ErrBadRange)
	}
	if newSize > oldSize && a.oomKilled.Load() {
		return 0, ErrOOMKilled
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)

	if newSize <= oldSize {
		// The cut tail is an ordinary unmap, run inside this call's
		// bracket, so it counts no Munmap.
		if newSize < oldSize {
			tail := op{kind: BatchMunmap, va: oldVA + arch.Vaddr(newSize), size: oldSize - newSize}
			if err := a.exec(core, &tail); err != nil {
				return 0, err
			}
		}
		return oldVA, nil
	}
	var newVA arch.Vaddr
	err := a.retryOOM(core, func() (err error) {
		newVA, err = a.grow(core, oldVA, oldSize, newSize)
		return err
	})
	return newVA, err
}

// splitEdges is a visitor that changes nothing but, being a mutating
// walk, splits the partially covered entries at the ends of its range.
var splitEdges = walkOps{onMeta: func(arch.PFN, int, int, arch.Vaddr, arch.Vaddr, arch.Vaddr) error { return nil }}

// grow moves the mapping at oldVA to a fresh newSize-byte range. Every
// step that can fail (a PT-page allocation) happens before the old range
// loses anything it cannot get back: its edges are split first, then the
// new range is built while the old one keeps its tables. On failure the
// moved pages go back, nothing is left at the new range and its VA is
// freed; on success the old range is cleared, which then cannot fail.
func (a *AddrSpace) grow(core int, oldVA arch.Vaddr, oldSize, newSize uint64) (arch.Vaddr, error) {
	newVA, err := a.valloc.Alloc(core, newSize)
	if err != nil {
		return 0, err
	}
	if overlap(oldVA, oldSize, newVA, newSize) {
		a.valloc.Free(core, newVA, newSize)
		return 0, fmt.Errorf("%w: allocator returned overlapping range", mm.ErrBadRange)
	}
	oldEnd := oldVA + arch.Vaddr(oldSize)
	// One transaction spans both ranges: its covering page is their
	// lowest common ancestor. Two separate cursors could self-deadlock
	// when one covering page contains the other; a single wider lock is
	// also what Linux's mremap does (the mmap_lock writer).
	c, err := a.Lock(core, minVA(oldVA, newVA), maxVA(oldEnd, newVA+arch.Vaddr(newSize)))
	if err != nil {
		a.valloc.Free(core, newVA, newSize)
		return 0, err
	}
	// The old range's VAs are recycled immediately after; their
	// translations must die everywhere before the move returns.
	c.needSync = true
	runs, allocated, err := c.moveTo(oldVA, oldEnd, newVA, newSize)
	if err != nil {
		c.unmove(oldVA, newVA, newSize)
		c.Close()
		a.valloc.Free(core, newVA, newSize)
		return 0, err
	}
	// Commit: clear what the old range still records. Its edges are
	// split, so neither call needs a PT page. A moved file mapping's
	// words took their registrations at the new range before these give
	// the old ones back, so its file keeps its object id throughout.
	for _, r := range runs {
		switch r.Status.Kind {
		case pt.StatusMapped: // taken already
		case pt.StatusSwapped:
			// The destination keeps the block: clear without releasing.
			_ = c.clearMeta(r.VA, r.End())
		default:
			_ = c.Mark(r.VA, r.End(), pt.Status{})
		}
	}
	c.Close()

	// Retire the old range's address space under munmapFinish's rule:
	// every page of it was allocated and has moved out. Only the VA half
	// of that tail applies.
	if allocated == oldSize/arch.PageSize {
		a.valloc.Free(core, oldVA, oldSize)
	}
	return newVA, nil
}

// moveTo builds the new range of a grow: the old range's mapped pages
// move there (a page whose placement fails goes straight back), its
// swap and virtual statuses are copied, and the tail past the old size
// becomes fresh on-demand memory. The old range keeps its tables and
// statuses; the runs it held and their page count are returned.
func (c *RCursor) moveTo(oldVA, oldEnd, newVA arch.Vaddr, newSize uint64) (runs []Run, allocated uint64, err error) {
	if err := c.walk(&splitEdges, oldVA, oldEnd); err != nil {
		return nil, 0, err
	}
	// One pass enumerates the old range as runs; the moves mutate both
	// ranges, so they happen after the iteration. tailPerm — the
	// permission for the newly grown pages — comes from the first
	// allocated run (Linux grows the mapping with the VMA's protection;
	// our analog is the recorded or mapped permission).
	if err := c.Iterate(oldVA, oldEnd, func(r Run) error {
		runs = append(runs, r)
		allocated += r.Pages
		return nil
	}); err != nil {
		return nil, 0, err
	}
	tailPerm := arch.PermRW
	if len(runs) > 0 {
		tailPerm = logicalPerm(runs[0].Status.Perm) &^ (arch.PermCOW | arch.PermShared)
	}
	for _, r := range runs {
		dst := newVA + (r.VA - oldVA)
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
				} else if err = c.PlacePage(dst+arch.Vaddr(i*arch.PageSize), frame, perm, key); err != nil {
					_ = c.PlacePage(src, frame, perm, key) // its table is still there
				}
			}
		default:
			// Swap entries and not-resident virtual/file state: one Mark
			// per run at the destination. (Swap runs are single pages:
			// every block is distinct.)
			err = c.Mark(dst, dst+arch.Vaddr(r.Pages*arch.PageSize), r.Status)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	// The grown tail is fresh on-demand memory.
	oldSize := uint64(oldEnd - oldVA)
	err = c.Mark(newVA+arch.Vaddr(oldSize), newVA+arch.Vaddr(newSize), pt.Status{Kind: pt.StatusPrivateAnon, Perm: tailPerm})
	return runs, allocated, err
}

// unmove undoes a failed moveTo: every page at the new range goes back
// to its old address, whose table is still there, and the new range's
// statuses and tables go without releasing the swap blocks the old
// range still names (its file words give back the registrations moveTo's
// Marks took).
func (c *RCursor) unmove(oldVA, newVA arch.Vaddr, newSize uint64) {
	newEnd := newVA + arch.Vaddr(newSize)
	var moved []Run
	_ = c.IterateMapped(newVA, newEnd, func(r Run) error {
		moved = append(moved, r)
		return nil
	})
	for _, r := range moved {
		for va := r.VA; va < r.End(); va += arch.PageSize {
			frame, perm, key, _ := c.TakePage(va)
			_ = c.PlacePage(oldVA+(va-newVA), frame, perm, key)
		}
	}
	_ = c.clearMeta(newVA, newEnd)
	_ = c.Unmap(newVA, newEnd)
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
// splitting upper-level spans as needed, WITHOUT releasing the swap
// blocks the statuses name (unlike dropMeta) — used when they moved
// elsewhere. A file word's registration is the word's own, so it goes
// with it (SetMetaWord).
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
