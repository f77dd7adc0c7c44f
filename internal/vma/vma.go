// Package vma is the Linux baseline: a conventional two-level-abstraction
// memory manager with a software-level VMA tree synchronized against the
// hardware page table. Its locking mirrors Table 1 and Figure 2 of the
// CortenMM paper: a global mmap_lock (readers-writer), per-VMA locks for
// the fault fast path, one coarse page-table lock for the upper levels,
// and fine-grained per-page locks for the bottom two levels.
//
// The point of this package is to reproduce Linux's contention profile —
// mmap/munmap serialize on the mmap_lock writer while faults contend on
// its reader side and on the VMA layer — so the evaluation's comparisons
// have a faithful opponent.
package vma

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/locks"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// Space is one Linux-style address space.
type Space struct {
	m    *cpusim.Machine
	isa  arch.ISA
	asid tlb.ASID
	dead atomic.Bool // Destroy ran: the ASID has been freed
	tree *pt.Tree

	// mmapLock is Linux's mmap_lock, protecting the whole VMA tree.
	mmapLock sync.RWMutex
	vmas     tree
	brk      arch.Vaddr // bump allocator for unhinted mmaps

	// ptl is the coarse page-table lock covering levels 3 and 4
	// (Table 1 row 3); level 2 and 1 pages use their own fine-grained
	// locks in the page descriptor.
	ptl locks.Ticket

	// Fault-path bookkeeping real Linux pays for every anonymous page:
	// a memory-cgroup charge, LRU insertion (batched through per-CPU
	// pagevecs of 15, flushed under the LRU lock), and the anon reverse
	// mapping. CortenMM's evaluation wins partly come from Linux doing
	// this on top of its two-level synchronization, so the baseline
	// must pay it too.
	memcg    atomic.Int64
	lruMu    sync.Mutex
	lru      map[arch.PFN]struct{}
	pagevecs []pagevec
	// anonOwner is the anon reverse mapping's owner record; its Space
	// stays nil, so no migrator takes a baseline's page for a candidate.
	anonOwner mem.AnonOwner

	stats mm.Stats
}

// pagevec is a per-CPU batch of pages awaiting LRU insertion.
type pagevec struct {
	pages [15]arch.PFN
	n     int
	_     [40]byte
}

// chargePage accounts a newly faulted page: cgroup charge and (batched)
// LRU insertion.
func (s *Space) chargePage(core int, frame arch.PFN) {
	s.memcg.Add(1)
	pv := &s.pagevecs[core]
	pv.pages[pv.n] = frame
	pv.n++
	if pv.n == len(pv.pages) {
		s.lruMu.Lock()
		for _, pfn := range pv.pages {
			s.lru[pfn] = struct{}{}
		}
		s.lruMu.Unlock()
		pv.n = 0
	}
}

// unchargePages removes unmapped pages from the LRU and cgroup.
func (s *Space) unchargePages(frames []arch.PFN) {
	if len(frames) == 0 {
		return
	}
	s.memcg.Add(-int64(len(frames)))
	s.lruMu.Lock()
	for _, pfn := range frames {
		delete(s.lru, pfn)
	}
	s.lruMu.Unlock()
}

// New creates an empty Linux-style address space on machine m.
func New(m *cpusim.Machine, isa arch.ISA) (*Space, error) {
	if isa == nil {
		isa = arch.X8664(false)
	}
	t, err := pt.NewTree(m.Phys, isa, m.Cores, false)
	if err != nil {
		return nil, err
	}
	return &Space{
		m: m, isa: isa, asid: m.AllocASID(), tree: t, brk: cpusim.UserLo,
		lru:      make(map[arch.PFN]struct{}),
		pagevecs: make([]pagevec, m.Cores),
	}, nil
}

// ASID implements mm.MM.
func (s *Space) ASID() tlb.ASID { return s.asid }

// Stats implements mm.MM.
func (s *Space) Stats() *mm.Stats { return &s.stats }

// VMACount reports the number of VMAs (the Figure-22 metadata bars).
func (s *Space) VMACount() int {
	s.mmapLock.RLock()
	defer s.mmapLock.RUnlock()
	return s.vmas.count
}

// Features implements mm.MM: the subset of Table 2 this baseline
// implements (swap, rmap and NUMA policy are not needed by any
// benchmark and are omitted from the simulation; Fork and MmapFile are
// its cow and file cells).
func (s *Space) Features() mm.Features {
	return mm.Features{OnDemandPaging: true}
}

// Mmap implements mm.MM: take the mmap_lock writer, carve a range, and
// insert a VMA. No page-table work happens (on-demand paging).
func (s *Space) Mmap(core int, size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return 0, err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	size = (size + arch.PageSize - 1) &^ (arch.PageSize - 1)

	s.mmapLock.Lock()
	va := s.brk
	s.brk += arch.Vaddr(size)
	if s.brk > cpusim.UserHi {
		s.mmapLock.Unlock()
		return 0, cpusim.ErrVAExhausted
	}
	s.insertMerged(&VMA{Start: va, End: va + arch.Vaddr(size), Perm: perm})
	s.mmapLock.Unlock()

	if fl&mm.FlagPopulate != 0 {
		for off := uint64(0); off < size; off += arch.PageSize {
			if err := s.Touch(core, va+arch.Vaddr(off), pt.AccessRead); err != nil {
				return 0, err
			}
		}
	}
	return va, nil
}

// MmapFixed implements mm.MM.
func (s *Space) MmapFixed(core int, va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	s.mmapLock.Lock()
	defer s.mmapLock.Unlock()
	if len(s.vmas.overlaps(va, va+arch.Vaddr(size))) > 0 {
		return mm.ErrExists
	}
	s.insertMerged(&VMA{Start: va, End: va + arch.Vaddr(size), Perm: perm})
	return nil
}

// insertMerged inserts an anonymous VMA, merging with compatible
// neighbours as Linux's vma_merge does — without it the tree grows one
// node per mmap forever. Caller holds the mmap_lock writer.
func (s *Space) insertMerged(v *VMA) {
	if v.File == nil {
		if pred := s.vmas.find(v.Start - 1); pred != nil &&
			pred.End == v.Start && pred.File == nil && pred.Perm == v.Perm && !pred.Shared {
			// vma_start_write: faults in the predecessor must drain
			// before its bounds change.
			pred.lock.Lock()
			s.vmas.remove(pred)
			v.Start = pred.Start
			pred.lock.Unlock()
		}
		if succ := s.vmas.find(v.End); succ != nil &&
			succ.Start == v.End && succ.File == nil && succ.Perm == v.Perm && !succ.Shared {
			succ.lock.Lock()
			s.vmas.remove(succ)
			v.End = succ.End
			succ.lock.Unlock()
		}
	}
	s.vmas.insert(v)
}

// MmapFile implements mm.FileMapper.
func (s *Space) MmapFile(core int, f *mem.File, pgoff, size uint64, perm arch.Perm, shared bool) (arch.Vaddr, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return 0, err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mmaps.Add(1)
	s.m.OpTick(core)
	size = (size + arch.PageSize - 1) &^ (arch.PageSize - 1)
	s.mmapLock.Lock()
	defer s.mmapLock.Unlock()
	va := s.brk
	s.brk += arch.Vaddr(size)
	if s.brk > cpusim.UserHi {
		return 0, cpusim.ErrVAExhausted
	}
	s.vmas.insert(&VMA{Start: va, End: va + arch.Vaddr(size), Perm: perm, File: f, Pgoff: pgoff, Shared: shared})
	return va, nil
}

// Munmap implements mm.MM: the Figure-2 write-side path — mmap_lock
// writer, mark every overlapping VMA (write-locking each), split at the
// boundaries, clear the page tables, flush TLBs, free pages.
func (s *Space) Munmap(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Munmaps.Add(1)
	s.m.OpTick(core)
	lo, hi := va, va+arch.Vaddr(size)

	s.mmapLock.Lock()
	for _, v := range s.vmas.overlaps(lo, hi) {
		// vma_start_write: wait out fault-path readers.
		v.lock.Lock()
		switch {
		case v.Start >= lo && v.End <= hi:
			s.vmas.remove(v)
		case v.Start < lo && v.End > hi:
			// Split into head and tail (two node operations — the cost
			// the paper blames for Linux's slow unmap-virt).
			tail := &VMA{Start: hi, End: v.End, Perm: v.Perm, File: v.File, Shared: v.Shared}
			if v.File != nil {
				tail.Pgoff = v.pgoffOf(hi)
			}
			v.End = lo
			s.vmas.insert(tail)
		case v.Start < lo:
			v.End = lo
		default:
			if v.File != nil {
				v.Pgoff = v.pgoffOf(hi)
			}
			s.vmas.remove(v)
			v.Start = hi
			s.vmas.insert(v)
		}
		v.lock.Unlock()
	}
	freed := s.clearRange(core, lo, hi)
	s.freePageTables(core, lo, hi)
	s.mmapLock.Unlock()

	s.m.TLB.ShootdownRange(core, s.asid, lo, hi)
	s.release(core, freed)
	return nil
}

// Mprotect implements mm.MM: mmap_lock writer, VMA splits, PTE updates.
func (s *Space) Mprotect(core int, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Mprotects.Add(1)
	s.m.OpTick(core)
	lo, hi := va, va+arch.Vaddr(size)

	s.mmapLock.Lock()
	for _, v := range s.vmas.overlaps(lo, hi) {
		v.lock.Lock()
		if v.Start < lo {
			head := &VMA{Start: v.Start, End: lo, Perm: v.Perm, File: v.File, Pgoff: v.Pgoff, Shared: v.Shared}
			if v.File != nil {
				v.Pgoff = v.pgoffOf(lo)
			}
			s.vmas.remove(v)
			v.Start = lo
			s.vmas.insert(v)
			s.vmas.insert(head)
		}
		if v.End > hi {
			tail := &VMA{Start: hi, End: v.End, Perm: v.Perm, File: v.File, Shared: v.Shared}
			if v.File != nil {
				tail.Pgoff = v.pgoffOf(hi)
			}
			v.End = hi
			s.vmas.insert(tail)
		}
		v.Perm = perm
		v.lock.Unlock()
	}
	s.protectRange(core, lo, hi, perm)
	s.mmapLock.Unlock()
	s.m.TLB.ShootdownAll(core, s.asid, true)
	return nil
}

// Msync implements mm.FileMapper.
func (s *Space) Msync(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	s.m.OpTick(core)
	s.mmapLock.RLock()
	defer s.mmapLock.RUnlock()
	for off := uint64(0); off < size; off += arch.PageSize {
		page := va + arch.Vaddr(off)
		pte, level, ok := s.tree.Walk(page)
		if !ok || level != 1 {
			continue
		}
		head := s.m.Phys.HeadOf(s.isa.PFNOf(pte))
		d := s.m.Phys.Desc(head)
		if d.RMap.File != nil && s.isa.PermOf(pte)&arch.PermShared != 0 {
			d.RMap.File.Writeback(d.RMap.Index)
		}
	}
	return nil
}

// Destroy implements mm.MM. Idempotent; the ASID's translations are
// left to the allocator's rollover flush (the freed slot cannot be
// reissued before every core is flushed) and the ASID is returned to
// the machine. An access that passed the gate may still be walking the
// tree, so the RCU monitor tears it down.
func (s *Space) Destroy(core int) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.mmapLock.Lock()
	s.vmas = tree{}
	s.mmapLock.Unlock()
	s.m.DeferTeardown(core, nil, s.tree)
	s.m.FreeASID(s.asid)
}

// Fork implements mm.Forker: mmap_lock writer on the parent, VMA list copy,
// page-table copy with COW write-protection by the one copier CortenMM
// uses too, pt.Tree.ForkInto.
func (s *Space) Fork(core int) (mm.MM, error) {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return nil, err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.Forks.Add(1)
	s.m.OpTick(core)
	child, err := New(s.m, s.isa)
	if err != nil {
		return nil, err
	}
	s.mmapLock.Lock()
	child.brk = s.brk
	s.vmas.forEach(func(v *VMA) {
		child.vmas.insert(&VMA{Start: v.Start, End: v.End, Perm: v.Perm, File: v.File, Pgoff: v.Pgoff, Shared: v.Shared})
	})
	err = s.tree.ForkInto(core, child.tree)
	s.mmapLock.Unlock()
	if err != nil {
		child.Destroy(core)
		return nil, err
	}
	s.m.TLB.ShootdownAll(core, s.asid, true)
	return child, nil
}
