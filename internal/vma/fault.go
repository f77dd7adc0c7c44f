package vma

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// MadviseDontNeed implements mm.Madviser: zap the resident pages of
// [va, va+size) under the mmap_lock reader, keeping the VMAs intact.
func (s *Space) MadviseDontNeed(core int, va arch.Vaddr, size uint64) error {
	if err := mm.GateRange(&s.dead, core, s.m.Cores, va, size); err != nil {
		return err
	}
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.m.OpTick(core)
	s.mmapLock.RLock()
	freed := s.clearRange(core, va, va+arch.Vaddr(size))
	s.mmapLock.RUnlock()
	s.m.TLB.ShootdownAll(core, s.asid, true)
	s.release(core, freed)
	return nil
}

// Touch implements mm.MM: the machine's access path over this space's
// one tree, faulting through pageFault.
func (s *Space) Touch(core int, va arch.Vaddr, acc pt.Access) error {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return err
	}
	return s.m.Access(core, s.asid, s.tree, va, acc, s.pageFault, nil)
}

// Load implements mm.MM.
func (s *Space) Load(core int, va arch.Vaddr) (b byte, err error) {
	if err = mm.Gate(&s.dead, core, s.m.Cores); err == nil {
		err = s.m.Access(core, s.asid, s.tree, va, pt.AccessRead, s.pageFault, func(page []byte, off uint64) { b = page[off] })
	}
	return b, err
}

// Store implements mm.MM.
func (s *Space) Store(core int, va arch.Vaddr, b byte) error {
	if err := mm.Gate(&s.dead, core, s.m.Cores); err != nil {
		return err
	}
	return s.m.Access(core, s.asid, s.tree, va, pt.AccessWrite, s.pageFault, func(page []byte, off uint64) { page[off] = b })
}

// release returns unmapped data frames after the shootdown that covers
// them: off the LRU and the cgroup, then to the RCU monitor — an access
// that translated before the shootdown may still be reading one.
func (s *Space) release(core int, freed []arch.PFN) {
	if len(freed) == 0 {
		return
	}
	s.unchargePages(freed)
	s.m.Defer(core, func() { s.m.Phys.PutList(core, freed) })
}

// pageFault is Linux's fault path (left column of Figure 2): find the
// VMA under the mmap_lock reader, take the per-VMA lock, drop the
// mmap_lock, then update the page table under the split page-table
// locks.
func (s *Space) pageFault(core int, va arch.Vaddr, acc pt.Access) error {
	defer s.stats.KernelExit(s.stats.KernelEnter())
	s.stats.PageFaults.Add(1)
	s.m.OpTick(core)
	page := arch.PageAlignDown(va)

	s.mmapLock.RLock()
	v := s.vmas.find(page)
	if v == nil {
		s.mmapLock.RUnlock()
		return mm.ErrSegv
	}
	v.lock.RLock()
	s.mmapLock.RUnlock()
	defer v.lock.RUnlock()

	perm := v.Perm
	if !perm.Contains(acc.Needs()) {
		return mm.ErrSegv
	}

	leafPT, err := s.ensurePath(core, page)
	if err != nil {
		return err
	}
	st := s.tree.State(leafPT)
	st.Mu.Lock()
	defer st.Mu.Unlock()
	idx := arch.IndexAt(page, 1)
	pte := s.tree.LoadPTE(leafPT, idx)

	if s.isa.IsPresent(pte) {
		ptePerm := s.isa.PermOf(pte)
		if acc == pt.AccessWrite && !ptePerm.Contains(arch.PermWrite) && ptePerm&arch.PermCOW != 0 {
			return s.cowBreak(core, v, leafPT, idx, pte, page)
		}
		if ptePerm.Contains(acc.Needs()) {
			s.stats.SoftFaults.Add(1)
			s.m.TLB.FlushLocal(core, s.asid, page)
			return nil
		}
		return mm.ErrSegv
	}

	// Not present: fault the page in per the VMA's backing.
	var frame arch.PFN
	hwPerm := perm
	switch {
	case v.File == nil:
		frame, err = s.m.Phys.AllocFrame(core, mem.KindAnon)
		if err != nil {
			return err
		}
	case v.Shared:
		frame, err = v.File.GetPage(core, v.pgoffOf(page))
		if err != nil {
			return err
		}
		hwPerm |= arch.PermShared
	default: // private file
		frame, err = v.File.GetPage(core, v.pgoffOf(page))
		if err != nil {
			return err
		}
		if acc == pt.AccessWrite {
			cp, cerr := s.m.Phys.CopyPage(core, frame)
			s.m.Phys.Put(core, frame)
			if cerr != nil {
				return cerr
			}
			frame = cp
			s.stats.COWBreaks.Add(1)
		} else if hwPerm&arch.PermWrite != 0 {
			hwPerm = hwPerm&^arch.PermWrite | arch.PermCOW
		}
	}
	s.tree.SetPTE(leafPT, idx, s.isa.EncodeLeaf(frame, hwPerm, 1))
	if d := s.m.Phys.Desc(s.m.Phys.HeadOf(frame)); d.RMap.File == nil {
		d.MapExclusive(&s.anonOwner, uint64(page)) // the anon rmap
	} else {
		d.Map()
	}
	s.chargePage(core, frame)
	return nil
}

// cowBreak resolves a write fault on a COW page; the leaf lock is held.
func (s *Space) cowBreak(core int, v *VMA, leafPT arch.PFN, idx int, pte uint64, page arch.Vaddr) error {
	s.stats.COWBreaks.Add(1)
	frame := s.isa.PFNOf(pte)
	head := s.m.Phys.HeadOf(frame)
	d := s.m.Phys.Desc(head)
	perm := s.isa.PermOf(pte)
	newPerm := perm&^arch.PermCOW | arch.PermWrite
	if d.MapCount() == 1 && d.Kind == mem.KindAnon {
		s.tree.SetPTE(leafPT, idx, s.isa.WithPerm(pte, newPerm, 1))
		s.m.TLB.FlushLocal(core, s.asid, page)
		return nil
	}
	cp, err := s.m.Phys.CopyPage(core, frame)
	if err != nil {
		return err
	}
	s.tree.SetPTE(leafPT, idx, s.isa.EncodeLeaf(cp, newPerm, 1))
	s.m.Phys.Desc(s.m.Phys.HeadOf(cp)).Map()
	d.Unmap()
	s.m.TLB.Shootdown(core, s.asid, []tlb.Range{{Lo: page, Hi: page + arch.PageSize}}, true)
	s.m.Defer(core, func() { s.m.Phys.Put(core, head) })
	return nil
}

// ensurePath walks to the leaf PT page of va, allocating intermediate
// pages under the coarse page-table lock (levels 4..3) and the parent's
// fine-grained lock (level 2), per Table 1's split-lock rules.
func (s *Space) ensurePath(core int, va arch.Vaddr) (arch.PFN, error) {
	cur := s.tree.Root
	for level := arch.Levels; level > 1; level-- {
		idx := arch.IndexAt(va, level)
		pte := s.tree.LoadPTE(cur, idx)
		if !s.isa.IsPresent(pte) {
			coarse := level > 2
			if coarse {
				s.ptl.Lock()
			} else {
				s.tree.State(cur).Mu.Lock()
			}
			pte = s.tree.LoadPTE(cur, idx) // re-check under the lock
			if !s.isa.IsPresent(pte) {
				child, err := s.tree.AllocPTPage(core, level-1)
				if err != nil {
					if coarse {
						s.ptl.Unlock()
					} else {
						s.tree.State(cur).Mu.Unlock()
					}
					return 0, err
				}
				s.tree.SetPTE(cur, idx, s.isa.EncodeTable(child))
				pte = s.tree.LoadPTE(cur, idx)
			}
			if coarse {
				s.ptl.Unlock()
			} else {
				s.tree.State(cur).Mu.Unlock()
			}
		}
		cur = s.isa.PFNOf(pte)
	}
	return cur, nil
}

// clearRange removes every present leaf PTE in [lo, hi), returning the
// frames to free once the TLB flush lands. Leaf locks are taken because
// faults on *other* VMAs sharing a leaf PT page may run concurrently.
func (s *Space) clearRange(core int, lo, hi arch.Vaddr) []arch.PFN {
	var freed []arch.PFN
	for page := lo; page < hi; page += arch.PageSize {
		pfn, idx, ok := s.tree.Slot(page, 1)
		if !ok {
			// Skip the rest of this leaf span: nothing mapped here.
			span := arch.Vaddr(arch.SpanBytes(2))
			page = (page &^ (span - 1)) + span - arch.PageSize
			continue
		}
		st := s.tree.State(pfn)
		st.Mu.Lock()
		pte := s.tree.LoadPTE(pfn, idx)
		if s.isa.IsPresent(pte) {
			head := s.m.Phys.HeadOf(s.isa.PFNOf(pte))
			s.m.Phys.Desc(head).Unmap()
			freed = append(freed, head)
			s.tree.SetPTE(pfn, idx, 0)
		}
		st.Mu.Unlock()
	}
	return freed
}

// protectRange rewrites present PTEs in [lo, hi) with the VMA-level COW
// rules applied.
func (s *Space) protectRange(core int, lo, hi arch.Vaddr, perm arch.Perm) {
	for page := lo; page < hi; page += arch.PageSize {
		pfn, idx, ok := s.tree.Slot(page, 1)
		if !ok {
			span := arch.Vaddr(arch.SpanBytes(2))
			page = (page &^ (span - 1)) + span - arch.PageSize
			continue
		}
		st := s.tree.State(pfn)
		st.Mu.Lock()
		pte := s.tree.LoadPTE(pfn, idx)
		if s.isa.IsPresent(pte) {
			old := s.isa.PermOf(pte)
			p := perm
			if old&arch.PermShared != 0 {
				p |= arch.PermShared
			} else if p&arch.PermWrite != 0 {
				head := s.m.Phys.HeadOf(s.isa.PFNOf(pte))
				d := s.m.Phys.Desc(head)
				if d.MapCount() > 1 || d.Kind == mem.KindFile {
					p = p&^arch.PermWrite | arch.PermCOW
				}
			}
			s.tree.StorePTE(pfn, idx, s.isa.WithPerm(pte, p, 1))
		}
		st.Mu.Unlock()
	}
}

// freePageTables releases leaf PT pages whose whole span fell inside the
// unmapped range and no longer intersects any VMA (Linux's free_pgtables
// with floor/ceiling bounds). Upper-level pages are retained until
// Destroy, as Linux mostly does in practice.
func (s *Space) freePageTables(core int, lo, hi arch.Vaddr) {
	span := arch.Vaddr(arch.SpanBytes(2))
	first := (lo + span - 1) &^ (span - 1)
	for base := first; base+span <= hi; base += span {
		if len(s.vmas.overlaps(base, base+span)) > 0 {
			continue
		}
		leaf, _, ok := s.tree.Slot(base, 1)
		if !ok {
			continue
		}
		st := s.tree.State(leaf)
		st.Mu.Lock()
		empty := st.Present == 0
		st.Mu.Unlock()
		if !empty {
			continue
		}
		// Clear the parent entry (level-2 page, fine-grained lock); the
		// hardware walker may be inside the leaf, so the RCU monitor frees it.
		parent, idx, _ := s.tree.Slot(base, 2)
		pst := s.tree.State(parent)
		pst.Mu.Lock()
		s.tree.SetPTE(parent, idx, 0)
		pst.Mu.Unlock()
		s.m.Defer(core, func() { s.tree.ReleasePTPage(core, leaf) })
	}
}
