package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// Mmap implements mm.MM: allocate a virtual range and mark it virtually
// allocated (on-demand paging; Figure 8 do_syscall_mmap).
func (a *AddrSpace) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	if err := a.checkAlive(core); err != nil {
		return 0, err
	}
	if size = alignSize(size, fl); size == 0 {
		return 0, errZeroSize
	}
	va, err := a.valloc.Alloc(core, size)
	if err != nil {
		return 0, err
	}
	if err := a.mmapAt(core, va, size, perm, fl, false); err != nil {
		a.valloc.Free(core, va, size)
		return 0, err
	}
	return va, nil
}

// MmapFixed implements mm.MM: map at an exact address, failing on
// collision.
func (a *AddrSpace) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	size = alignSize(size, fl)
	if err := a.checkAlive(core); err != nil {
		return err
	}
	if err := a.checkRange(core, va, size); err != nil {
		return err
	}
	return a.mmapAt(core, va, size, perm, fl, true)
}

// errZeroSize rejects an allocator-served mmap whose size aligns to
// nothing, before a VA is spent on it.
var errZeroSize = fmt.Errorf("%w: zero size", mm.ErrBadRange)

func alignSize(size uint64, fl mm.Flags) uint64 {
	align := uint64(arch.PageSize)
	if fl&mm.FlagHuge2M != 0 {
		align = arch.SpanBytes(2)
	}
	if fl&mm.FlagHuge1G != 0 {
		align = arch.SpanBytes(3)
	}
	return (size + align - 1) &^ (align - 1)
}

// mmapAt is the body Mmap and MmapFixed share; both have passed
// checkAlive.
func (a *AddrSpace) mmapAt(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.stats.Mmaps.Add(1)
	a.m.OpTick(core)
	// The attempt is a complete transaction that fully unwinds on
	// failure, so the OOM retry path can re-run it after direct reclaim.
	return a.retryOOM(core, func() error {
		return a.mmapAttempt(core, va, size, perm, fl, checkExists)
	})
}

func (a *AddrSpace) mmapAttempt(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return a.mmapBody(c, va, size, perm, fl, checkExists)
}

// mmapBody is the transactional work of an anonymous mmap under an
// already-held cursor (the batch layer shares it; the cursor may cover
// a wider coalesced range). It fully unwinds on failure.
func (a *AddrSpace) mmapBody(c *RCursor, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags, checkExists bool) error {
	if checkExists {
		used, err := c.AnyAllocated(va, va+arch.Vaddr(size))
		if err != nil {
			return err
		}
		if used {
			return mm.ErrExists
		}
	}
	s := pt.Status{Kind: pt.StatusPrivateAnon, Perm: perm}
	switch {
	case fl&mm.FlagHuge1G != 0:
		s = s.WithHuge(3)
	case fl&mm.FlagHuge2M != 0:
		s = s.WithHuge(2)
	}
	if err := c.Mark(va, va+arch.Vaddr(size), s); err != nil {
		// A failed Mark may have marked a prefix; do not leave it behind
		// when the caller frees the VA range back to the allocator.
		_ = c.Unmap(va, va+arch.Vaddr(size))
		return err
	}
	if fl&mm.FlagPopulate != 0 {
		if err := c.PopulateAnon(va, va+arch.Vaddr(size)); err != nil {
			// Mid-population failure (OOM): the caller frees the VA range
			// on error, so a half-populated, still-Marked range would leak
			// frames and resurrect on the range's next tenant. Tear it
			// all down before reporting.
			_ = c.Unmap(va, va+arch.Vaddr(size))
			return err
		}
	}
	return nil
}

// MmapFile implements mm.MM: map size bytes of f from page offset pgoff,
// shared or private (copy-on-write).
func (a *AddrSpace) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	if err := a.checkAlive(core); err != nil {
		return 0, err
	}
	if size = alignSize(size, 0); size == 0 {
		return 0, errZeroSize
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.stats.Mmaps.Add(1)
	a.m.OpTick(core)
	va, err := a.valloc.Alloc(core, size)
	if err != nil {
		return 0, err
	}
	kind := pt.StatusPrivateFile
	if shared {
		kind = pt.StatusSharedFile
	}
	hi := va + arch.Vaddr(size)
	// One registration is taken before the status is packed — it names f
	// by the object id f's first registration gives it — and held until
	// the marked words hold their own.
	err = f.AddMapper(a)
	if err == nil {
		defer f.RemoveMappers(a, 1)
		var c *RCursor
		if c, err = a.Lock(core, va, hi); err == nil {
			if err = c.Mark(va, hi, pt.FileStatus(kind, perm, f, pgoff)); err != nil {
				_ = c.Unmap(va, hi) // a failed Mark may have marked a prefix
			}
			c.Close()
		}
	}
	if err != nil {
		a.valloc.Free(core, va, size)
		return 0, err
	}
	return va, nil
}

// MmapSharedAnon maps shared anonymous memory by naming its pages with a
// kernel-internal file (§4.5), so fork'd children share writes.
func (a *AddrSpace) MmapSharedAnon(core int, size uint64, perm arch.Perm) (arch.Vaddr, error) {
	size = alignSize(size, 0)
	f := mem.NewFile(a.m.Phys, "[shm]", size)
	return a.MmapFile(core, f, 0, size, perm, true)
}

// Munmap implements mm.MM (Figure 8 do_syscall_munmap).
func (a *AddrSpace) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := a.checkRange(core, va, size); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.stats.Munmaps.Add(1)
	a.m.OpTick(core)
	return a.unmapRange(core, va, size)
}

// unmapRange is one unmap transaction plus its bookkeeping tail; Mremap
// cuts a shrunk mapping's tail with it.
func (a *AddrSpace) unmapRange(core int, va arch.Vaddr, size uint64) error {
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	err = c.Unmap(va, va+arch.Vaddr(size))
	cleared := c.cleared
	c.Close()
	if err != nil {
		return err
	}
	a.munmapFinish(core, va, size, cleared)
	return nil
}

// munmapFinish is the non-MMU tail of a successful unmap that cleared
// `cleared` allocated pages, shared with the batch layer (which runs it
// after batch commit): hand the VAs back to the allocator iff the whole
// range was allocated. A repeated or overlapping unmap clears fewer pages
// than its range holds and stops here. Whose range it was the page table cannot say, so the allocator
// has the last word: it ignores ranges it never handed out, and ranges
// overlapping one it already holds free (a fixed mapping placed over
// recycled addresses).
func (a *AddrSpace) munmapFinish(core int, va arch.Vaddr, size, cleared uint64) {
	if cleared == size/arch.PageSize {
		a.valloc.Free(core, va, size)
	}
}

// Mprotect implements mm.MM.
func (a *AddrSpace) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := a.checkRange(core, va, size); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.stats.Mprotects.Add(1)
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Protect(va, va+arch.Vaddr(size), perm)
}

// Msync implements mm.MM: write back dirty shared file pages.
func (a *AddrSpace) Msync(core int, va arch.Vaddr, size uint64) error {
	if err := a.checkRange(core, va, size); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return err
	}
	defer c.Close()
	return a.msyncBody(c, va, va+arch.Vaddr(size))
}

// msyncBody writes back dirty shared file pages of [lo, hi) under an
// already-held cursor (shared with the batch layer). One pass over the
// locked subtree, resident pages only (metadata entries have nothing to
// write back); runs carry the hardware D bit, so only dirty shared runs
// cost per-page descriptor work.
func (a *AddrSpace) msyncBody(c *RCursor, lo, hi arch.Vaddr) error {
	return c.IterateMapped(lo, hi, func(r Run) error {
		if r.Status.Perm&arch.PermShared == 0 || !r.Dirty {
			return nil
		}
		for i := uint64(0); i < r.Pages; i++ {
			head := a.m.Phys.HeadOf(r.Status.Page() + arch.PFN(i))
			d := a.m.Phys.Desc(head)
			if d.RMap.File != nil {
				d.RMap.File.Writeback(d.RMap.Index)
			}
		}
		return nil
	})
}

// PopulateRange pre-faults the anonymous pages of [va, va+size) in one
// transaction — the standalone form of mmap's FlagPopulate, and the
// sequential twin of the batch layer's populate op. Already-resident
// pages are left alone.
func (a *AddrSpace) PopulateRange(core int, va arch.Vaddr, size uint64) error {
	if err := a.checkAlive(core); err != nil {
		return err
	}
	if err := a.checkRange(core, va, size); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)
	return a.retryOOM(core, func() error {
		c, err := a.Lock(core, va, va+arch.Vaddr(size))
		if err != nil {
			return err
		}
		defer c.Close()
		return c.PopulateAnon(va, va+arch.Vaddr(size))
	})
}

// Touch implements mm.MM: one simulated user access, faulting as needed.
// The access itself is the machine's (cpusim.Machine.Access); the space
// supplies its gate — checked before the TLB is, because a destroyed
// space's translations may still sit in one (recycle-implies-flushed,
// see Destroy) — its tree and its fault handler.
func (a *AddrSpace) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	if err := a.gate(core); err != nil {
		return err
	}
	return a.m.Access(core, a.asid, a.tree, va, acc, a.pageFault, nil)
}

// Load implements mm.MM.
func (a *AddrSpace) Load(core int, va arch.Vaddr) (b byte, err error) {
	if err = a.gate(core); err == nil {
		err = a.m.Access(core, a.asid, a.tree, va, pt.AccessRead, a.pageFault, func(page []byte, off uint64) { b = page[off] })
	}
	return b, err
}

// Store implements mm.MM.
func (a *AddrSpace) Store(core int, va arch.Vaddr, b byte) error {
	if err := a.gate(core); err != nil {
		return err
	}
	return a.m.Access(core, a.asid, a.tree, va, pt.AccessWrite, a.pageFault, func(page []byte, off uint64) { page[off] = b })
}

// pageFault is the Figure-8 handler with the hardened OOM unwind: a
// fault that fails for lack of frames closes its transaction, runs
// direct reclaim from syscall context (no locks held) and re-faults,
// bounded by the retry budget. The kernel-time bracket spans the retry
// loop, as mmapAt's and PopulateRange's do: direct reclaim on behalf of
// a fault is kernel time.
func (a *AddrSpace) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	if err := a.checkAlive(core); err != nil {
		return err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	return a.retryOOM(core, func() error {
		return a.pageFaultOnce(core, va, acc)
	})
}

// pageFaultOnce runs one whole fault inside one transaction.
func (a *AddrSpace) pageFaultOnce(core int, va arch.Vaddr, acc pt.Access) error {
	a.stats.PageFaults.Add(1)
	a.m.OpTick(core)
	page := arch.PageAlignDown(va)
	c, err := a.Lock(core, page, page+arch.PageSize)
	if err != nil {
		return err
	}
	st, err := c.Query(page)
	if err == nil && st.Kind == pt.StatusPrivateAnon && st.HugeLevel() >= 2 {
		// A huge mapping needs a transaction over the whole span: restart
		// with a wider cursor. The page was unlocked in between, so its
		// state is queried again.
		c.Close()
		span := arch.SpanBytes(st.HugeLevel())
		base := page &^ arch.Vaddr(span-1)
		if c, err = a.Lock(core, base, base+arch.Vaddr(span)); err != nil {
			return err
		}
		st, err = c.Query(page)
	}
	defer c.Close()
	if err != nil {
		return err
	}
	return a.faultIn(core, c, page, acc, st)
}

// faultIn services one page whose status st was queried under the
// already-held cursor c.
func (a *AddrSpace) faultIn(core int, c *RCursor, page arch.Vaddr, acc pt.Access, st pt.Status) error {
	switch st.Kind {
	case pt.StatusMapped:
		return a.faultMapped(core, c, page, acc, st)

	case pt.StatusPrivateAnon:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		if st.HugeLevel() >= 2 {
			if err := a.faultHuge(core, c, page, st); err == nil {
				return nil
			}
			// Fall back to 4-KiB pages when no contiguous block exists.
		}
		frame, err := a.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
		return c.MapKeyed(page, frame, 1, st.Perm, st.Key())

	case pt.StatusPrivateFile:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		fpfn, err := st.File(a.m.Phys).GetPage(core, st.Off())
		if err != nil {
			return err
		}
		if acc == pt.AccessWrite {
			// Write fault on a private file page: copy immediately.
			copyPFN, err := a.m.Phys.CopyPage(core, fpfn)
			if err != nil {
				a.m.Phys.Put(core, fpfn)
				return err
			}
			a.m.Phys.Put(core, fpfn)
			a.stats.COWBreaks.Add(1)
			return c.MapKeyed(page, copyPFN, 1, st.Perm&^arch.PermShared, st.Key())
		}
		hw := st.Perm &^ arch.PermShared
		if hw&arch.PermWrite != 0 {
			hw = hw&^arch.PermWrite | arch.PermCOW
		}
		return c.MapKeyed(page, fpfn, 1, hw, st.Key())

	case pt.StatusSharedFile, pt.StatusSharedAnon:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		fpfn, err := st.File(a.m.Phys).GetPage(core, st.Off())
		if err != nil {
			return err
		}
		return c.MapKeyed(page, fpfn, 1, st.Perm|arch.PermShared, st.Key())

	case pt.StatusSwapped:
		if !logicalPerm(st.Perm).Contains(acc.Needs()) {
			return errSegv
		}
		a.stats.SwapIns.Add(1)
		frame, err := a.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
		dev := st.Dev(a.m.Phys)
		dev.Read(st.Block(), a.m.Phys.Data(frame))
		dev.FreeBlock(st.Block())
		return c.MapKeyed(page, frame, 1, st.Perm, st.Key())

	default:
		return errSegv
	}
}

// faultMapped handles faults on already-mapped pages: COW breaks,
// permission violations, and spurious (stale-TLB) faults.
func (a *AddrSpace) faultMapped(core int, c *RCursor, page arch.Vaddr, acc pt.Access, st pt.Status) error {
	perm := st.Perm
	if acc == pt.AccessWrite && !perm.Contains(arch.PermWrite) {
		if perm&arch.PermCOW == 0 {
			return errSegv
		}
		// Copy-on-write break (Figure 8).
		a.stats.COWBreaks.Add(1)
		head := a.m.Phys.HeadOf(st.Page())
		d := a.m.Phys.Desc(head)
		if d.MapCount() == 1 && d.Kind == mem.KindAnon {
			// Sole mapper of an anonymous page: no need to copy, just
			// upgrade in place.
			a.m.Phys.Get(head) // Map consumes one reference
			newPerm := perm&^arch.PermCOW | arch.PermWrite
			if err := c.MapKeyed(page, st.Page(), 1, newPerm, st.Key()); err != nil {
				return err
			}
		} else {
			copyPFN, err := a.m.Phys.CopyPage(core, st.Page())
			if err != nil {
				return err
			}
			newPerm := perm&^(arch.PermCOW|arch.PermShared) | arch.PermWrite
			if err := c.MapKeyed(page, copyPFN, 1, newPerm, st.Key()); err != nil {
				return err
			}
			// Readers elsewhere must switch to the copy... no: readers
			// keep the old (still correct pre-write) page only until
			// this shootdown lands, which Close performs synchronously.
			c.needSync = true
		}
		a.m.TLB.FlushLocal(core, a.asid, page)
		return nil
	}
	if !perm.Contains(acc.Needs()) {
		return errSegv
	}
	// Spurious fault: the PTE satisfies the access; a stale TLB entry
	// (e.g. after mprotect elsewhere) caused it. Flush locally and retry.
	a.stats.SoftFaults.Add(1)
	a.m.TLB.FlushLocal(core, a.asid, page)
	return nil
}

// faultHuge maps a whole huge span in one fault when the region was
// mmap'd with a huge-page flag and a contiguous block is available.
func (a *AddrSpace) faultHuge(core int, c *RCursor, page arch.Vaddr, st pt.Status) error {
	level := st.HugeLevel()
	span := arch.SpanBytes(level)
	base := page &^ arch.Vaddr(span-1)
	if base < c.lo || base+arch.Vaddr(span) > c.hi {
		// The cursor only covers the faulting page; a huge mapping
		// needs a transaction over the whole span.
		return fmt.Errorf("core: huge fault needs wider cursor")
	}
	order := (level - 1) * arch.IndexBits
	frame, err := a.m.Phys.AllocFrames(core, order, mem.KindAnon)
	if err != nil {
		return err
	}
	return c.MapKeyed(base, frame, level, st.Perm, st.Key())
}

// logicalPerm converts stored permissions to the user-visible ones: a
// COW page is logically writable.
func logicalPerm(p arch.Perm) arch.Perm {
	if p&arch.PermCOW != 0 {
		p |= arch.PermWrite
	}
	return p
}
