package core

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
)

// Fork implements mm.Forker: clone the address space with copy-on-write
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

// forkOnce publishes the child only once its tree is copied: forkCopy
// writes the child's tree without a transaction of its own, so no daemon
// visit may lock it before.
func (a *AddrSpace) forkOnce(core int) (*AddrSpace, error) {
	child, err := newUnpublished(Options{
		Machine:       a.m,
		ISA:           a.isa,
		Protocol:      a.proto,
		CoarseLocking: a.coarse,
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
	a.m.Publish(child.asid, child)
	return child, nil
}

// forkCopy replicates the subtree at src (parent, under the caller's
// whole-space transaction) into dst (child, private to this call).
// Private mappings become COW in both trees; shared mappings alias the
// same frames; status words — marks and the origins beside PTEs — are
// copied once the PTEs are. Every copied word takes its hold before the
// parent's transaction ends: a file word holds its file, so no unmap
// in the parent can retire an object id the child names, and a swapped page's word shares its block, so each side swaps
// in its own private copy. Like pt.Tree.Destroy
// it recurses over a tree it owns outright, so it is not a walkRange
// visitor: it writes a second tree in step with the first.
func (a *AddrSpace) forkCopy(core int, child *AddrSpace, src, dst arch.PFN, level int) error {
	t, isa := a.tree, a.isa
	ct := child.tree
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
	t.CopyMeta(src, ct, dst)
	return nil
}

// Destroy implements mm.MM: tear down the address space. Teardown is
// exclusive by contract (the "process" has exited), so it walks the
// tree directly instead of paying for a whole-space transaction —
// exactly what exit/exec does in the paper's evaluation (§6.2).
// Idempotent. It waits for every daemon visit in flight, and FreeASID
// takes the space out of the machine's table, so no later sweep, scan or
// OOM victim search can walk the torn-down tree.
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
	// In-flight daemon operations saw destroyed==false before
	// locking; wait them out so the tree teardown below never races
	// one (see enter/drainVisits).
	a.drainVisits()
	a.tree.Destroy(core, func(pte uint64, level int) {
		head := a.m.Phys.HeadOf(a.isa.PFNOf(pte))
		a.m.Phys.Desc(head).Unmap()
		a.m.Phys.Put(core, head)
	})
	a.m.FreeASID(a.asid)
}
