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

// forkOnce copies the parent's tree into an unpublished child with the
// one copier, pt.Tree.ForkInto, under a whole-space transaction on the
// parent, and publishes the child only once it is copied: the copier
// writes the child's tree without a transaction of its own, so no
// daemon visit may lock it before. The pages ForkInto write-protects
// are flushed everywhere before the transaction ends. On failure the
// half-built child is destroyed, which unwinds every reference and hold
// the copy took.
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
	if err = a.tree.ForkInto(core, child.tree); err != nil {
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

// Destroy implements mm.MM: tear down the address space. Teardown is
// exclusive by contract (the "process" has exited), so it takes no
// whole-space transaction — exactly what exit/exec does in the paper's
// evaluation (§6.2). Idempotent. It waits for every daemon visit in
// flight, then tears down through cpusim.Machine.DeferTeardown, the
// baselines' teardown too: the space's mappings and status-word holds
// end at once, as an unmap's do, and the tree and its data frames — a
// Touch that passed the gate may still be reading them inside
// Machine.Access — go to the RCU monitor, which frees the frames with one
// PutList. Last, FreeASID takes the space out of the machine's table, so
// no later sweep, scan or OOM victim search can reach the dead tree.
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
	a.m.DeferTeardown(core, nil, a.tree)
	a.m.FreeASID(a.asid)
}
