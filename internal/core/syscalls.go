package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// op is one range operation: the arguments of a syscall or one entry of
// a batch ring. Every range syscall and every ring entry reaches its body
// through apply.
type op struct {
	kind BatchKind
	va   arch.Vaddr
	size uint64
	perm arch.Perm
	fl   mm.Flags
	// file, pgoff and shared name a file mapping's pages (nil file:
	// anonymous).
	file   *mem.File
	pgoff  uint64
	shared bool

	// ring marks a VA the batch allocated at enqueue time (Mmap); a
	// failed op must hand it back to the allocator after commit.
	ring bool
	// checkExists makes the mmap fail on collision (MmapFixed).
	checkExists bool
	// cleared is how many allocated pages this op's own Unmap removed
	// (a ring's group cursor is shared, so apply records the delta).
	cleared uint64
}

func (o *op) end() arch.Vaddr { return o.va + arch.Vaddr(o.size) }

// allocates reports whether o's body takes frames: such an op refuses an
// OOM-killed space and, as a syscall, is retried after direct reclaim.
func (o *op) allocates() bool { return o.kind == BatchMmap || o.kind == BatchPopulate }

// admit is the gate of an op on a caller-chosen range, shared by the
// syscalls and Submit: an allocating op refuses an OOM-killed space, and
// the range must be canonical.
func (a *AddrSpace) admit(core int, o *op) error {
	if o.allocates() {
		if err := a.checkAlive(core); err != nil {
			return err
		}
	}
	return a.checkRange(core, o.va, o.size)
}

// count bumps the mm.Stats counter of o's kind, if it has one.
func (a *AddrSpace) count(o *op) {
	switch o.kind {
	case BatchMmap:
		a.stats.Mmaps.Add(1)
	case BatchMunmap:
		a.stats.Munmaps.Add(1)
	case BatchMprotect:
		a.stats.Mprotects.Add(1)
	}
}

// call is a range syscall: gate, then run.
func (a *AddrSpace) call(core int, o op) error {
	if err := a.admit(core, &o); err != nil {
		return err
	}
	return a.run(core, &o)
}

// run is a syscall's bracket around one admitted op (Figure 8): kernel
// time, its counter, the event clock, then exec — retried after direct
// reclaim when the op allocates. Direct reclaim on behalf of a syscall is
// kernel time, so the bracket spans the retries.
func (a *AddrSpace) run(core int, o *op) error {
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.count(o)
	a.m.OpTick(core)
	if o.allocates() {
		return a.retryOOM(core, func() error { return a.exec(core, o) })
	}
	return a.exec(core, o)
}

// exec runs o as one transaction — each body fully unwinds on failure,
// so the OOM retry can re-run it — and, for a munmap, the recycle tail
// once its translations are dead. Mremap cuts a shrunk mapping's tail
// with it.
func (a *AddrSpace) exec(core int, o *op) error {
	c, err := a.Lock(core, o.va, o.end())
	if err != nil {
		return err
	}
	err = a.apply(c, o)
	c.Close()
	if err == nil && o.kind == BatchMunmap {
		a.munmapFinish(core, o.va, o.size, o.cleared)
	}
	return err
}

// apply runs o's body under c, which covers o's range (a ring's cursor
// may cover a wider coalesced one). It is the only route from a range op
// to its body, for the syscalls and the ring alike.
func (a *AddrSpace) apply(c *RCursor, o *op) error {
	lo, hi := o.va, o.end()
	switch o.kind {
	case BatchMmap:
		return a.mmapBody(c, o)
	case BatchMunmap:
		before := c.cleared
		err := c.Unmap(lo, hi)
		o.cleared = c.cleared - before
		return err
	case BatchMprotect:
		return c.Protect(lo, hi, o.perm)
	case BatchMadvise:
		return a.madviseBody(c, lo, hi)
	case BatchMsync:
		return a.msyncBody(c, lo, hi)
	case BatchPopulate:
		return c.PopulateAnon(lo, hi)
	}
	return fmt.Errorf("%w: op kind %d", mm.ErrNotSupported, o.kind)
}

// Mmap implements mm.MM: allocate a virtual range and mark it virtually
// allocated (on-demand paging; Figure 8 do_syscall_mmap).
func (a *AddrSpace) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	return a.mmap(core, op{kind: BatchMmap, size: size, perm: perm, fl: fl})
}

// MmapFixed implements mm.MM: map at an exact address, failing on
// collision.
func (a *AddrSpace) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	size, _ = pageLength(size, fl)
	return a.call(core, op{kind: BatchMmap, va: va, size: size, perm: perm, fl: fl, checkExists: true})
}

// MmapFile implements mm.FileMapper: map size bytes of f from page offset pgoff,
// shared or private (copy-on-write).
func (a *AddrSpace) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	return a.mmap(core, op{kind: BatchMmap, size: size, perm: perm, file: f, pgoff: pgoff, shared: shared})
}

// mmap is Mmap and MmapFile: a fresh range, the file held across the
// transaction if there is a file, run, and the range handed back on
// failure.
func (a *AddrSpace) mmap(core int, o op) (arch.Vaddr, error) {
	if err := a.allocVA(core, &o); err != nil {
		return 0, err
	}
	var err error
	if o.file == nil {
		err = a.run(core, &o)
	} else if err = o.file.Hold(); err == nil {
		// This reference is taken before the status is packed — it
		// names the file by the object id its first reference gives
		// it — and held until the marked words hold their own.
		err = a.run(core, &o)
		o.file.Release(1)
	}
	if err != nil {
		a.valloc.Free(core, o.va, o.size)
		return 0, err
	}
	return o.va, nil
}

// allocVA is the front of an allocator-served mmap, the syscall's and the
// ring's: the alive gate, the aligned size, and a fresh range of it.
func (a *AddrSpace) allocVA(core int, o *op) (err error) {
	if err = a.checkAlive(core); err != nil {
		return err
	}
	if o.size, err = pageLength(o.size, o.fl); err != nil {
		return err
	}
	o.va, err = a.valloc.Alloc(core, o.size)
	return err
}

// pageLength is cpusim.PageLength at the alignment fl asks for. A fixed
// mapping takes a refused length as 0, which its range check refuses as
// mm.ErrBadRange after the gate: its caller chose the range.
func pageLength(size uint64, fl mm.Flags) (uint64, error) {
	align := uint64(arch.PageSize)
	if fl&mm.FlagHuge2M != 0 {
		align = arch.SpanBytes(2)
	}
	if fl&mm.FlagHuge1G != 0 {
		align = arch.SpanBytes(3)
	}
	return cpusim.PageLength(size, align)
}

// mmapBody marks o's range with its anonymous or file status and, for an
// anonymous FlagPopulate, fills it. It fully unwinds on failure.
func (a *AddrSpace) mmapBody(c *RCursor, o *op) error {
	lo, hi := o.va, o.end()
	if o.checkExists {
		used, err := c.AnyAllocated(lo, hi)
		if err != nil {
			return err
		}
		if used {
			return mm.ErrExists
		}
	}
	s := pt.Status{Kind: pt.StatusPrivateAnon, Perm: o.perm}
	switch {
	case o.file != nil:
		kind := pt.StatusPrivateFile
		if o.shared {
			kind = pt.StatusSharedFile
		}
		s = pt.FileStatus(kind, o.perm, o.file, o.pgoff)
	case o.fl&mm.FlagHuge1G != 0:
		s = s.WithHuge(3)
	case o.fl&mm.FlagHuge2M != 0:
		s = s.WithHuge(2)
	}
	if err := c.Mark(lo, hi, s); err != nil {
		// A failed Mark may have marked a prefix; do not leave it behind
		// when the caller frees the VA range back to the allocator.
		_ = c.Unmap(lo, hi)
		return err
	}
	if o.fl&mm.FlagPopulate != 0 {
		if err := c.PopulateAnon(lo, hi); err != nil {
			// Mid-population failure (OOM): the caller frees the VA range
			// on error, so a half-populated, still-Marked range would leak
			// frames and resurrect on the range's next tenant. Tear it
			// all down before reporting.
			_ = c.Unmap(lo, hi)
			return err
		}
	}
	return nil
}

// MmapSharedAnon maps shared anonymous memory by naming its pages with a
// kernel-internal file (§4.5), so fork'd children share writes. The
// memory is freed with the last word naming the file.
func (a *AddrSpace) MmapSharedAnon(core int, size uint64, perm arch.Perm) (arch.Vaddr, error) {
	return a.MmapFile(core, mem.NewAnonFile(a.m.Phys, size), 0, size, perm, true)
}

// Munmap implements mm.MM (Figure 8 do_syscall_munmap).
func (a *AddrSpace) Munmap(core int, va arch.Vaddr, size uint64) error {
	return a.call(core, op{kind: BatchMunmap, va: va, size: size})
}

// munmapFinish is the non-MMU tail of a successful unmap that cleared
// `cleared` allocated pages, run by exec and, after batch commit, by
// Submit: hand the VAs back to the allocator iff the whole range was
// allocated. A repeated or overlapping unmap clears fewer pages than its
// range holds and stops here. Whose range it was the page table cannot
// say, so the allocator has the last word: it ignores ranges it never
// handed out, and ranges overlapping one it already holds free (a fixed
// mapping placed over recycled addresses).
func (a *AddrSpace) munmapFinish(core int, va arch.Vaddr, size, cleared uint64) {
	if cleared == size/arch.PageSize {
		a.valloc.Free(core, va, size)
	}
}

// Mprotect implements mm.MM.
func (a *AddrSpace) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	return a.call(core, op{kind: BatchMprotect, va: va, size: size, perm: perm})
}

// Msync implements mm.FileMapper: write back dirty shared file pages.
func (a *AddrSpace) Msync(core int, va arch.Vaddr, size uint64) error {
	return a.call(core, op{kind: BatchMsync, va: va, size: size})
}

// msyncBody writes back dirty shared file pages of [lo, hi). One pass
// over the locked subtree, resident pages only (metadata entries have
// nothing to write back); runs carry the hardware D bit and their origin
// file page, so only dirty shared file runs cost per-page work.
func (a *AddrSpace) msyncBody(c *RCursor, lo, hi arch.Vaddr) error {
	return c.IterateMapped(lo, hi, func(r Run) error {
		if r.Status.Perm&arch.PermShared != 0 && r.Dirty && r.Origin.Allocated() {
			for i := uint64(0); i < r.Pages; i++ {
				r.Origin.File(a.m.Phys).Writeback(r.Origin.Off() + i)
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
	return a.call(core, op{kind: BatchPopulate, va: va, size: size})
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
// loop, as run's does: direct reclaim on behalf of a fault is kernel
// time.
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
		// The map replaces the word, which gives back its block reference.
		a.m.Phys.Swap().Read(st.Block(), a.m.Phys.Data(frame))
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
