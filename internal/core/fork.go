package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
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
	// The child maps the same file pages at the same addresses — and is
	// their files' mapper before the parent's transaction ends, so no
	// unmap in the parent can retire an object id the child's copied
	// statuses name. (The files are mapped already: this cannot fail.)
	for _, fm := range a.fileMappings() {
		_ = child.registerFileMapping(fm.file, fm.va, fm.pgoff, fm.npages)
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
// same frames; metadata statuses are copied. Like pt.Tree.Destroy it
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
			a.m.Phys.Desc(head).Map()
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
	a.pruneFileMappings(0, arch.MaxVaddr)
	a.tree.Destroy(core, func(pte uint64, level int) {
		head := a.m.Phys.HeadOf(a.isa.PFNOf(pte))
		a.m.Phys.Desc(head).Unmap()
		a.m.Phys.Put(core, head)
	})
	a.m.FreeASID(a.asid)
}

// RMapUnmap implements mem.RMapTarget: unmap every mapping of the given
// file page in this space. The rmapHints records are hints; each
// candidate address is re-checked inside a transaction, as §4.5 requires
// ("access to the page table via reverse mapping always goes through the
// transactional interface").
func (a *AddrSpace) RMapUnmap(f *mem.File, index uint64) {
	for _, va := range a.lookupFileVAs(f, index) {
		c, err := a.Lock(0, va, va+arch.PageSize)
		if err != nil {
			continue
		}
		st, err := c.Query(va)
		if err == nil && st.Kind == pt.StatusMapped {
			head := a.m.Phys.HeadOf(st.Page())
			d := a.m.Phys.Desc(head)
			if d.RMap.File == f && d.RMap.Index == index {
				c.needSync = true // the page is about to be reclaimed
				// Mark releases the mapping and records the not-resident
				// status, so a later access faults the page back in
				// instead of segfaulting. One page under a leaf table:
				// nothing to split, so it cannot fail.
				_ = c.Mark(va, va+arch.PageSize, a.nonResident(st))
			}
		}
		c.Close()
	}
}
