package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// Fork implements mm.MM: clone the address space with copy-on-write
// (§4.3). The whole parent space is locked in one transaction — this is
// the "operation that must enumerate the address space" the paper calls
// CortenMM's worst case (§6.2): with no VMA list, the walk is over the
// page table itself.
func (a *AddrSpace) Fork(core int) (mm.MM, error) {
	if err := a.checkAlive(core); err != nil {
		return nil, err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.stats.Forks.Add(1)
	a.m.OpTick(core)
	// forkOnce fully unwinds on failure (the half-built child is
	// destroyed), so the OOM retry path can re-run it after reclaim.
	var child *AddrSpace
	err := a.retryOOM(core, func() error {
		var ferr error
		child, ferr = a.forkOnce(core)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return child, nil
}

func (a *AddrSpace) forkOnce(core int) (*AddrSpace, error) {
	child, err := New(Options{
		Machine:  a.m,
		ISA:      a.isa,
		Protocol: a.proto,
		SwapDev:  a.m.Phys.DevByID(a.swapID),
	})
	if err != nil {
		return nil, err
	}
	child.valloc = a.valloc.Clone()

	c, err := a.Lock(core, 0, arch.MaxVaddr)
	if err != nil {
		child.Destroy(core)
		return nil, err
	}
	if err = a.forkCopy(core, child, a.tree.Root, child.tree.Root, arch.Levels); err != nil {
		c.Close()
		child.Destroy(core)
		return nil, err
	}
	// Parent PTEs were write-protected for COW; every core must observe
	// that before fork returns.
	c.flushAll = true
	c.needSync = true
	c.Close()
	return child, nil
}

// forkCopy replicates the subtree at src (parent, under the caller's
// whole-space transaction) into dst (child, private to this call).
// Private mappings become COW in both trees; shared mappings alias the
// same frames; metadata statuses are copied. Every copied word and every
// copied PTE to a page-cache frame registers the child with its file
// before the parent's transaction ends, so no unmap in the parent can
// retire an object id the child names. Like pt.Tree.Destroy it
// recurses over a tree it owns outright, so it is not a walkRange
// visitor: it writes a second tree in step with the first.
func (a *AddrSpace) forkCopy(core int, child *AddrSpace, src, dst arch.PFN, level int) error {
	t, isa := a.tree, a.isa
	ct := child.tree
	if !t.CopyMeta(src, ct, dst) {
		// Swap entries are not duplicated: swap-in on either side would
		// race over one block. Bring the page back in the parent first.
		return fmt.Errorf("core: fork over swapped page unsupported; swap in first")
	}
	for idx := 0; idx < arch.PTEntries; idx++ {
		pte := t.LoadPTE(src, idx)
		if !isa.IsPresent(pte) {
			continue
		}
		if isa.IsLeaf(pte, level) {
			perm := isa.PermOf(pte)
			frame := isa.PFNOf(pte)
			head := a.m.Phys.HeadOf(frame)
			if perm&arch.PermShared == 0 && perm&arch.PermWrite != 0 {
				// Private writable page: write-protect and mark COW in
				// the parent (§4.3: shared bit + writable bit).
				newPerm := perm&^arch.PermWrite | arch.PermCOW
				t.StorePTE(src, idx, isa.WithPerm(pte, newPerm, level))
				pte = t.LoadPTE(src, idx)
				perm = newPerm
			}
			childPTE := isa.EncodeLeaf(frame, perm, level)
			if key := isa.ProtKeyOf(pte); key != 0 {
				childPTE = isa.WithProtKey(childPTE, key)
			}
			ct.SetPTE(dst, idx, childPTE)
			a.m.Phys.Get(head)
			d := a.m.Phys.Desc(head)
			d.Map()
			if d.Kind == mem.KindFile { // the parent maps it: it has an id
				_ = d.RMap.File.AddMapper(child)
			}
			continue
		}
		srcChild := isa.PFNOf(pte)
		dstChild, err := ct.AllocPTPage(core, level-1)
		if err != nil {
			return err
		}
		ct.SetPTE(dst, idx, isa.EncodeTable(dstChild))
		if err := a.forkCopy(core, child, srcChild, dstChild, level-1); err != nil {
			return err
		}
	}
	return nil
}

// Destroy implements mm.MM: tear down the address space. Teardown is
// exclusive by contract (the "process" has exited), so it walks the
// tree directly instead of paying for a whole-space transaction —
// exactly what exit/exec does in the paper's evaluation (§6.2).
// Idempotent. The space is unregistered from its daemon first, so no
// later sweep, scan or OOM victim search can walk the torn-down tree.
//
// Teardown issues no TLB shootdown at all: the dead translations are unreachable (no lookup
// ever uses this ASID again) and the allocator's rollover flushes every
// core before the slot is reissued — recycle-implies-flushed. That is
// the whole point of the bounded allocator: thousands of short-lived
// spaces stop paying an all-core fan-out each, and stop conservatively
// killing 1/64 of every other space's TLB fills per teardown.
func (a *AddrSpace) Destroy(core int) {
	if !a.destroyed.CompareAndSwap(false, true) {
		return
	}
	if d := a.daemon.Load(); d != nil {
		d.Unregister(a)
	}
	// In-flight daemon operations saw destroyed==false before
	// locking; wait them out so the tree teardown below never races a
	// migration transaction (see migrateEnter/drainMigrants).
	a.drainMigrants()
	a.tree.Destroy(core, func(pte uint64, level int) {
		head := a.m.Phys.HeadOf(a.isa.PFNOf(pte))
		d := a.m.Phys.Desc(head)
		d.Unmap()
		a.unregisterFrame(d)
		a.m.Phys.Put(core, head)
	})
	a.m.FreeASID(a.asid)
}

// RMapUnmap implements mem.RMapTarget: unmap every mapping of the given
// file page in this space. The page table is the record: one whole-space
// transaction finds the PTEs that map the page, and each is re-marked
// with its not-resident file status, so a later access faults the page
// back in (§4.5: reverse mapping goes through the transactional
// interface).
func (a *AddrSpace) RMapUnmap(f *mem.File, index uint64) {
	c, err := a.Lock(0, 0, arch.MaxVaddr)
	if err != nil {
		return
	}
	defer c.Close()
	var hits []Run
	_ = c.IterateMapped(0, arch.MaxVaddr, func(r Run) error {
		for i := uint64(0); i < r.Pages; i++ {
			st := r.Status.SlidBy(i)
			if d := a.m.Phys.Desc(a.m.Phys.HeadOf(st.Page())); d.RMap.File == f && d.RMap.Index == index {
				hits = append(hits, Run{VA: r.VA + arch.Vaddr(i*arch.PageSize), Pages: 1, Status: st})
			}
		}
		return nil
	})
	c.needSync = len(hits) > 0 // the page is about to be reclaimed
	for _, r := range hits {
		// One page under a leaf table: nothing to split, so it cannot fail.
		_ = c.Mark(r.VA, r.End(), a.nonResident(r.Status))
	}
}
