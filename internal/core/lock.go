package core

import (
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/rcu"
	"cortenmm/internal/tlb"
)

// RCursor is the handle returned by AddrSpace.Lock (Figure 4): it owns
// the covering PT page (and, under CortenMM_adv, every descendant) and
// exposes the basic operations that are applied atomically within the
// locked range. Closing the cursor releases the locks in reverse
// acquisition order and performs the deferred TLB shootdowns and frame
// frees the operations accumulated.
type RCursor struct {
	a    *AddrSpace
	core int
	lo   arch.Vaddr
	hi   arch.Vaddr

	root      arch.PFN   // the covering PT page
	rootLevel int        // its level
	rootBase  arch.Vaddr // base VA of its span
	minLevel  int        // do not descend below this level (default 1)

	// hint is the covering page the last lockAdv through this cursor
	// locked. reset keeps it, so only the per-core cached cursor ever
	// starts a transaction with one.
	hint coverHint

	// readPath holds the read-locked ancestors (CortenMM_rw only),
	// outermost first.
	readPath []arch.PFN
	// locked holds MCS-locked pages in acquisition (preorder) order
	// (CortenMM_adv only). Pages freed mid-transaction are replaced by
	// the NoPFN sentinel.
	locked []arch.PFN

	// Deferred side effects, committed at Close.
	deferredOps

	// cleared counts the allocated pages (mapped or marked; a mapped page
	// with an origin word counts once) the teardown paths have removed in
	// this transaction. An unmap that cleared as many pages as its range
	// holds found the range fully allocated, which is what lets its VAs
	// go back to the allocator.
	cleared uint64

	closed bool

	// Inline backing arrays keep the common small transactions (a page
	// fault locks one PT page, unmaps touch a handful) allocation-free.
	readPathArr [arch.Levels]arch.PFN
	lockedArr   [8]arch.PFN
	flushArr    [8]tlb.Range
	freedArr    [8]rcu.FrameRun
}

// coverHint names one life of a covering PT page by its PageState, noted
// inside a traversal's read section; lockAdv says why locking it after
// the section is sound.
type coverHint struct {
	st    *pt.PageState
	pfn   arch.PFN
	level int
	base  arch.Vaddr
}

// reset prepares a (possibly recycled) cursor for a new transaction,
// retaining any grown slice capacity from earlier use.
func (c *RCursor) reset(a *AddrSpace, core int, lo, hi arch.Vaddr) {
	c.a, c.core, c.lo, c.hi = a, core, lo, hi
	c.root, c.rootLevel, c.rootBase = 0, 0, 0
	if c.readPath == nil {
		c.readPath = c.readPathArr[:0]
		c.locked = c.lockedArr[:0]
		c.flush = c.flushArr[:0]
		c.freed = c.freedArr[:0]
	} else {
		c.readPath = c.readPath[:0]
		c.locked = c.locked[:0]
		c.flush = c.flush[:0]
		c.freed = c.freed[:0]
	}
	c.flushAll, c.needSync, c.closed, c.cleared = false, false, false, 0
}

// Lock begins a transaction over [lo, hi): it runs the configured
// locking protocol and returns a cursor whose operations execute
// atomically with respect to every other transaction touching an
// overlapping range (§3.3). Transactions on disjoint ranges proceed in
// parallel.
func (a *AddrSpace) Lock(core int, lo, hi arch.Vaddr) (*RCursor, error) {
	return a.LockLevel(core, lo, hi, 1)
}

// LockLevel is Lock with a floor on the covering PT page's level:
// descent stops at minLevel even when a deeper page would cover the
// range. Operations that rewrite an entry at level L (e.g. installing a
// level-L huge leaf over an existing subtree) need the page containing
// that entry locked, i.e. minLevel = L. A coarser covering page is
// always safe — it only widens the exclusive region.
func (a *AddrSpace) LockLevel(core int, lo, hi arch.Vaddr, minLevel int) (*RCursor, error) {
	if err := a.gate(core); err != nil {
		return nil, err
	}
	if lo >= hi || !arch.IsPageAligned(lo) || !arch.IsPageAligned(hi) || hi > arch.MaxVaddr {
		return nil, fmt.Errorf("%w: [%#x, %#x)", errBadRange, lo, hi)
	}
	if minLevel < 1 || minLevel > arch.Levels {
		return nil, fmt.Errorf("%w: min level %d", errBadRange, minLevel)
	}
	// One transaction per core at a time is the common case (the
	// simulated kernel disables preemption during MM operations), so a
	// per-core cursor cache avoids an allocation per transaction. The
	// entrant that raises the core's transaction word from zero owns the
	// cached cursor until its Close lowers the word again; a nested
	// transaction, or the rare concurrent user of the same core ID (e.g.
	// a reverse-mapping walk), gets a fresh one.
	var c *RCursor
	if a.m.EnterTx(core, uint64(a.asid)) {
		c = &a.cursors[core].c
	} else {
		c = new(RCursor)
	}
	c.reset(a, core, lo, hi)
	c.minLevel = minLevel
	if a.proto == ProtocolRW {
		a.lockRW(c)
	} else {
		a.lockAdv(c)
	}
	return c, nil
}

// coversInOneChild reports whether [lo,hi) falls inside a single entry
// of a PT page at the given level — i.e. a child PT page could cover it
// — and descending would not violate the cursor's level floor.
func coversInOneChild(lo, hi arch.Vaddr, level, minLevel int) bool {
	return level > minLevel && arch.IndexAt(lo, level) == arch.IndexAt(hi-1, level)
}

// baseOfSpan returns the base VA of the PT page at the given level that
// contains va.
func baseOfSpan(va arch.Vaddr, level int) arch.Vaddr {
	if level >= arch.Levels {
		return 0
	}
	return va &^ arch.Vaddr(arch.SpanBytes(level+1)-1)
}

// lockRW is the CortenMM_rw protocol (Figure 5): walk from the root
// taking reader locks while a single child could cover the range; the
// first page where that stops is the covering PT page, which is locked
// for writing. If the walk stops because the child does not exist yet,
// the reader lock on the current page is released before upgrading —
// the benign exception discussed in §4.1.
func (a *AddrSpace) lockRW(c *RCursor) {
	cur := a.tree.Root
	level := arch.Levels
	for !a.coarse && coversInOneChild(c.lo, c.hi, level, c.minLevel) {
		st := a.state(cur)
		st.RW.RLock(c.core)
		c.readPath = append(c.readPath, cur)
		pte := a.tree.LoadPTE(cur, arch.IndexAt(c.lo, level))
		if !a.isa.IsPresent(pte) || a.isa.IsLeaf(pte, level) {
			break
		}
		cur = a.isa.PFNOf(pte)
		level--
	}
	// If the loop ended with cur itself read-locked (missing child or a
	// huge leaf in the way), release that lock before write-locking.
	if n := len(c.readPath); n > 0 && c.readPath[n-1] == cur {
		a.state(cur).RW.RUnlock(c.core)
		c.readPath = c.readPath[:n-1]
	}
	a.state(cur).RW.Lock(c.core)
	c.root = cur
	c.rootLevel = level
	c.rootBase = baseOfSpan(c.lo, level)
}

// lockAdv is the CortenMM_adv protocol (Figure 6) with the covering lock
// taken after the RCU read section: a lockless traversal inside the
// section finds the covering PT page and notes its PageState, the section
// ends, lockCover MCS-locks that state and re-checks it (retrying from
// the root if a concurrent unmap removed the page, Figure 7), and a
// preorder DFS locks all its descendants.
//
// Figure 6 waits for the lock inside the section because its lock lives
// in the frame, which only the section keeps from being reused. Here the
// lock and the stale flag belong to the page's life: pt.AllocPTPage makes
// a fresh state for every life and removeChild stale-marks it under its
// lock before the frame can be freed, and nothing is re-resolved through
// the frame number once the section ends, so a life that ends between the
// section and the lock reads stale forever. No RCU reader ever waits on a
// lock, which is what lets a transaction wait for a grace period
// (breakWrites).
//
// The cursor's hint is the state its last transaction locked; when it
// spans [lo, hi) it is tried first, with no section and no descent.
func (a *AddrSpace) lockAdv(c *RCursor) {
	for h := c.hint; h.st == nil || !a.lockCover(c, h); {
		a.m.RCU.ReadLock(c.core)
		cur, level := a.tree.Root, arch.Levels
		for !a.coarse && coversInOneChild(c.lo, c.hi, level, c.minLevel) {
			pte := a.tree.LoadPTE(cur, arch.IndexAt(c.lo, level))
			if !a.isa.IsPresent(pte) || a.isa.IsLeaf(pte, level) {
				break
			}
			cur = a.isa.PFNOf(pte)
			level--
		}
		h = coverHint{a.state(cur), cur, level, baseOfSpan(c.lo, level)}
		a.m.RCU.ReadUnlock(c.core)
	}
	// Locking phase: preorder DFS over all descendant PT pages. The
	// covering page's lock already excludes writers, but a lockless
	// traverser may have bypassed the covering page before we locked it,
	// so every descendant must be locked too (§4.1).
	a.dfsLock(c, c.root, c.rootLevel)
}

// lockCover locks the life h names and keeps it as the covering page if
// it is not stale and still covers [lo, hi): its span holds the range,
// and the range's entry is not a present table a deeper page would cover
// it from. Otherwise it unlocks and reports false.
func (a *AddrSpace) lockCover(c *RCursor, h coverHint) bool {
	if h.level < c.minLevel || baseOfSpan(c.lo, h.level) != h.base || baseOfSpan(c.hi-1, h.level) != h.base {
		return false
	}
	h.st.Mu.Lock()
	// Stale first: a dead page's frame may already hold anything.
	ok := !h.st.Stale.Load()
	if ok && !a.coarse && coversInOneChild(c.lo, c.hi, h.level, c.minLevel) {
		pte := a.tree.LoadPTE(h.pfn, arch.IndexAt(c.lo, h.level))
		ok = !a.isa.IsPresent(pte) || a.isa.IsLeaf(pte, h.level)
	}
	if !ok {
		h.st.Mu.Unlock()
		return false
	}
	c.trackLocked(h.pfn)
	c.root, c.rootLevel, c.rootBase, c.hint = h.pfn, h.level, h.base, h
	return true
}

func (a *AddrSpace) dfsLock(c *RCursor, pfn arch.PFN, level int) {
	if level == 1 {
		return
	}
	for i := 0; i < arch.PTEntries; i++ {
		pte := a.tree.LoadPTE(pfn, i)
		if !a.isa.IsPresent(pte) || a.isa.IsLeaf(pte, level) {
			continue
		}
		child := a.isa.PFNOf(pte)
		a.state(child).Mu.Lock()
		c.trackLocked(child)
		a.dfsLock(c, child, level-1)
	}
}

// trackLocked records an MCS-locked page in acquisition order.
func (c *RCursor) trackLocked(pfn arch.PFN) {
	c.locked = append(c.locked, pfn)
}

// untrackLocked removes a page from the locked set (it is about to be
// unlocked mid-transaction because it is being freed) and reports
// whether it was there — under CortenMM_rw nothing is. Transactions are
// small in the common case, so a backwards linear scan beats a map —
// removals also tend to hit recently locked pages.
func (c *RCursor) untrackLocked(pfn arch.PFN) bool {
	for i := len(c.locked) - 1; i >= 0; i-- {
		if c.locked[i] == pfn {
			c.locked[i] = arch.NoPFN
			return true
		}
	}
	return false
}

// Close ends the transaction: locks are released in reverse acquisition
// order (the Drop of Figure 4), then the accumulated TLB shootdowns and
// frame releases are performed. Closing twice is a no-op.
func (c *RCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.releaseLocks()
	c.a.commitDeferred(c.core, &c.deferredOps)
	c.exitTx()
}

// releaseLocks drops every lock the transaction holds, in reverse
// acquisition order.
func (c *RCursor) releaseLocks() {
	a := c.a
	if a.proto == ProtocolRW {
		a.state(c.root).RW.Unlock(c.core)
		for i := len(c.readPath) - 1; i >= 0; i-- {
			a.state(c.readPath[i]).RW.RUnlock(c.core)
		}
	} else {
		for i := len(c.locked) - 1; i >= 0; i-- {
			if pfn := c.locked[i]; pfn != arch.NoPFN {
				a.state(pfn).Mu.Unlock()
			}
		}
	}
}

// exitTx lowers the core's transaction word — the last step of closing,
// after the flush and freed lists have been read: once the word is back
// at zero the next entrant on this core may claim the cached cursor, so
// nothing touches c afterwards.
func (c *RCursor) exitTx() {
	// Drop oversized scratch space before the cursor can be reused.
	if cap(c.locked) > 1024 {
		c.locked = nil
		c.readPath = nil
		c.flush = nil
		c.freed = nil
	}
	c.a.m.ExitTx(c.core)
}

// deferredOps is what a transaction owes the rest of the machine once
// its locks are gone: TLB invalidations, then frame releases. A cursor
// fills one as its operations run and Close commits it; a batch merges
// the records of several transactions and commits them at once — one TLB
// fan-out for every flush record of the batch instead of one per
// transaction, and one RCU hand-off for every freed frame. The ordering
// argument is the same either way (shootdown before free); batching
// only moves the fan-out later, which widens the remote-staleness
// window the lazy-shootdown contract already permits — unless some
// transaction demanded synchrony (needSync), in which case the whole
// commit is synchronous and still completes before the batch returns.
type deferredOps struct {
	flush    []tlb.Range    // coalesced VA ranges whose translations must die
	flushAll bool           // flush the whole ASID instead
	needSync bool           // permission tightening: must not be lazy
	freed    []rcu.FrameRun // frame-head runs to release after the shootdown
}

// closeInto ends the transaction like Close but merges its deferred
// shootdown ranges and frame releases into d instead of committing
// them; the caller owns committing d. Mid-walk spills (maybeSpill) may
// already have fanned out part of a huge transaction's work — that only
// costs an extra fan-out, never misses one.
func (c *RCursor) closeInto(d *deferredOps) {
	if c.closed {
		return
	}
	c.closed = true
	c.releaseLocks()
	d.flushAll = d.flushAll || c.flushAll
	d.needSync = d.needSync || c.needSync
	d.flush = append(d.flush, c.flush...)
	d.freed = append(d.freed, c.freed...)
	c.exitTx()
}

// commitDeferred is the one way deferred work leaves a transaction: the
// TLB invalidations as a single fan-out (none when nothing was flushed),
// then the unmapped frames' references. Large disjoint batches need no
// full-ASID escape hatch: a shootdown costs a bounded number of
// generation records per core however many ranges it carries. All frames
// go through the RCU monitor: under lazy shootdown a core might still
// hold a stale translation, and even after a synchronous shootdown an
// access that already passed translation is still retiring (hardware
// acks the IPI only after in-flight accesses complete; the simulated
// access path models that window as an RCU read section). Returns the
// number of fan-outs emitted (0 or 1).
func (a *AddrSpace) commitDeferred(core int, d *deferredOps) int {
	emitted := 1
	switch {
	case d.flushAll:
		a.m.TLB.ShootdownAll(core, a.asid, d.needSync)
	case len(d.flush) > 0:
		a.m.TLB.Shootdown(core, a.asid, d.flush, d.needSync)
	default:
		emitted = 0
	}
	if len(d.freed) > 0 {
		// The cursor may be recycled before the grace period ends;
		// DeferPut takes its own copy of the run list.
		a.m.DeferPut(core, d.freed)
	}
	return emitted
}

// freedSpillRuns caps the deferred-free run list. A giant sparse unmap
// whose frames never coalesce (PFN order decorrelated from VA order)
// would otherwise grow c.freed by one run per page; at the cap the
// cursor flushes the accumulated shootdown ranges and hands the runs to
// the RCU monitor mid-walk, bounding transaction memory.
const freedSpillRuns = 256

// maybeSpill chunks the deferred work when the freed-run list hits the
// cap. Callers must be at a safe point: every queued frame's PTE
// already cleared and its VA range already recorded in c.flush (or
// flushAll set), so the spilled shootdown covers every spilled frame.
func (c *RCursor) maybeSpill() {
	if len(c.freed) >= freedSpillRuns {
		c.spillDeferred()
	}
}

// spillDeferred commits the shootdown + RCU frame hand-off accumulated
// so far and resets the queues, keeping flushAll/needSync for the work
// that follows. Running mid-transaction is sound: shootdowns only write
// other cores' epoch cells (no lock interaction with the MCS chain we
// hold), and the RCU grace period still orders each spilled free after
// any reader that could have observed the dead translation.
func (c *RCursor) spillDeferred() {
	c.a.commitDeferred(c.core, &c.deferredOps)
	c.flush = c.flush[:0]
	c.freed = c.freed[:0]
}

// checkRange validates that [lo,hi) lies inside the transaction.
func (c *RCursor) checkRange(lo, hi arch.Vaddr) error {
	if lo < c.lo || hi > c.hi || lo >= hi {
		return fmt.Errorf("%w: op [%#x,%#x) outside cursor [%#x,%#x)", errBadRange, lo, hi, c.lo, c.hi)
	}
	return nil
}
