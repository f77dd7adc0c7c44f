// Async batched MM pipeline: an io_uring-style submission ring over the
// transactional interface. Callers enqueue MM ops (mmap, munmap,
// mprotect, madvise, msync, populate) as SQEs — the op records the
// syscalls build — on a per-core Batch, then Submit executes them all in
// one pass through the syscalls' gate, counter and apply. The ops are
// sorted by virtual address and coalesced — adjacent or overlapping
// ranges merge into one transaction, so the locking protocol (BRAVO
// reader/writer or RCU+MCS+DFS) runs once per merged subtree instead of
// once per op — and every transaction's deferred flush records
// accumulate into a single TLB fan-out at batch commit (riding the
// node-batched ShootdownRanges). Completion is precise: each SQE gets a
// CQE carrying its own error, so a partial-batch failure names exactly
// the ops to retry.
//
// The ring differs from the one-op-per-call syscalls in coalescing, the
// deferred commit and one more thing: Submit does not run the OOM retry
// loop around individual ops. An op that fails with ErrOutOfMemory
// unwinds itself (apply's bodies keep the single-op unwind contract) and
// reports through its CQE; the caller decides whether to resubmit. Ops
// within a coalesced group execute in enqueue order; groups execute in
// ascending VA order, which is indistinguishable from enqueue order
// because distinct groups touch disjoint ranges.
package core

import (
	"sort"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
)

// BatchKind selects the MM operation of one SQE.
type BatchKind uint8

const (
	// BatchMmap marks a range virtually allocated (anonymous).
	BatchMmap BatchKind = iota
	// BatchMunmap releases a range.
	BatchMunmap
	// BatchMprotect changes a range's permissions.
	BatchMprotect
	// BatchMadvise drops a range's physical pages (MADV_DONTNEED).
	BatchMadvise
	// BatchMsync writes back a range's dirty shared file pages.
	BatchMsync
	// BatchPopulate pre-faults a range's anonymous pages.
	BatchPopulate
)

// String names the op kind.
func (k BatchKind) String() string {
	switch k {
	case BatchMmap:
		return "mmap"
	case BatchMunmap:
		return "munmap"
	case BatchMprotect:
		return "mprotect"
	case BatchMadvise:
		return "madvise"
	case BatchMsync:
		return "msync"
	case BatchPopulate:
		return "populate"
	}
	return "?"
}

// BatchCQE is one completion-queue entry: the op's identity and its
// outcome. CQE i corresponds to the i-th enqueued SQE.
type BatchCQE struct {
	Kind BatchKind
	VA   arch.Vaddr
	Size uint64
	Err  error
}

// Batch is a per-core submission ring. It is not safe for concurrent
// use — like a per-thread io_uring, each core submits on its own ring.
type Batch struct {
	a    *AddrSpace
	core int
	sq   []op
}

// NewBatch creates an empty submission ring for core.
func (a *AddrSpace) NewBatch(core int) *Batch {
	return &Batch{a: a, core: core}
}

// Pending reports the enqueued-but-unsubmitted op count.
func (b *Batch) Pending() int { return len(b.sq) }

// Mmap enqueues an anonymous mmap. The virtual range is allocated now —
// so later SQEs in the same batch can target it — and returned; the
// mapping itself is established at Submit. If the op then fails, the
// range is handed back to the allocator and the CQE carries the error.
func (b *Batch) Mmap(size uint64, perm arch.Perm, fl mm.Flags) (arch.Vaddr, error) {
	o := op{kind: BatchMmap, size: size, perm: perm, fl: fl, ring: true}
	if err := b.a.allocVA(b.core, &o); err != nil {
		return 0, err
	}
	b.sq = append(b.sq, o)
	return o.va, nil
}

// MmapFixed enqueues an anonymous mmap at an exact address, failing on
// collision at Submit.
func (b *Batch) MmapFixed(va arch.Vaddr, size uint64, perm arch.Perm, fl mm.Flags) error {
	size = alignSize(size, fl)
	if err := b.a.checkRange(b.core, va, size); err != nil {
		return err
	}
	b.sq = append(b.sq, op{kind: BatchMmap, va: va, size: size, perm: perm, fl: fl, checkExists: true})
	return nil
}

func (b *Batch) enqueue(kind BatchKind, va arch.Vaddr, size uint64, perm arch.Perm) error {
	if err := b.a.checkRange(b.core, va, size); err != nil {
		return err
	}
	b.sq = append(b.sq, op{kind: kind, va: va, size: size, perm: perm})
	return nil
}

// Munmap enqueues an unmap of [va, va+size).
func (b *Batch) Munmap(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMunmap, va, size, 0)
}

// Mprotect enqueues a permission change on [va, va+size).
func (b *Batch) Mprotect(va arch.Vaddr, size uint64, perm arch.Perm) error {
	return b.enqueue(BatchMprotect, va, size, perm)
}

// Madvise enqueues a MADV_DONTNEED-style page drop on [va, va+size).
func (b *Batch) Madvise(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMadvise, va, size, 0)
}

// Msync enqueues a dirty shared-file writeback of [va, va+size).
func (b *Batch) Msync(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchMsync, va, size, 0)
}

// Populate enqueues a pre-fault of the anonymous pages of [va, va+size).
func (b *Batch) Populate(va arch.Vaddr, size uint64) error {
	return b.enqueue(BatchPopulate, va, size, 0)
}

// batchGroup is one coalesced run of SQEs whose ranges overlap or abut:
// one transaction covers them all.
type batchGroup struct {
	lo, hi arch.Vaddr
	ops    []int // SQE indices, restored to enqueue order
}

// Submit executes every enqueued op and returns one CQE per SQE, in
// enqueue order. Ops are grouped by coalescing sorted ranges; each
// group runs under a single transaction, and all groups' deferred
// shootdowns and frame frees commit together — at most one TLB fan-out
// for the whole batch. The ring is left empty, ready for reuse.
func (b *Batch) Submit() []BatchCQE {
	n := len(b.sq)
	if n == 0 {
		return nil
	}
	a := b.a
	// A ring on a destroyed space or a core the machine does not have is
	// neither timed nor ticked; each group's Lock below completes its
	// ops with the gate's error.
	if a.gate(b.core) == nil {
		defer a.stats.KernelExit(a.stats.KernelEnter())
		a.m.OpTick(b.core)
	}
	cnt := &a.batch
	cnt.batches.Add(1)
	cnt.ops.Add(uint64(n))
	for {
		cur := cnt.maxRingDepth.Load()
		if int64(n) <= cur || cnt.maxRingDepth.CompareAndSwap(cur, int64(n)) {
			break
		}
	}

	groups := b.coalesce()
	cqes := make([]BatchCQE, n)
	var d deferredOps
	txFlushed := 0 // transactions that carried a flush: one-op-per-call's fan-outs
	for gi := range groups {
		g := &groups[gi]
		c, err := a.Lock(b.core, g.lo, g.hi)
		if err != nil {
			for _, i := range g.ops {
				cqes[i] = b.cqe(i, err)
			}
			continue
		}
		for _, i := range g.ops {
			o := &b.sq[i]
			err := a.admit(b.core, o)
			if err == nil {
				a.count(o)
				err = a.apply(c, o)
			}
			cqes[i] = b.cqe(i, err)
		}
		if c.flushAll || len(c.flush) > 0 {
			txFlushed++
		}
		c.closeInto(&d)
	}
	emitted := a.commitDeferred(b.core, &d)

	cnt.groups.Add(uint64(len(groups)))
	cnt.shootdowns.Add(uint64(emitted))
	cnt.flushRanges.Add(uint64(len(d.flush)))
	if txFlushed > emitted {
		cnt.coalescedFlushes.Add(uint64(txFlushed - emitted))
	}

	// Post-commit bookkeeping, after the translations are provably dead:
	// successful unmaps retire their reverse-map records and recycle
	// the ranges they found fully allocated; failed ring-allocated mmaps
	// hand their range back.
	for i := range cqes {
		o := &b.sq[i]
		switch {
		case o.kind == BatchMunmap && cqes[i].Err == nil:
			a.munmapFinish(b.core, o.va, o.size, o.cleared)
		case o.kind == BatchMmap && o.ring && cqes[i].Err != nil:
			a.valloc.Free(b.core, o.va, o.size)
		}
	}
	b.sq = b.sq[:0]
	return cqes
}

// cqe completes SQE i with err.
func (b *Batch) cqe(i int, err error) BatchCQE {
	o := &b.sq[i]
	return BatchCQE{Kind: o.kind, VA: o.va, Size: o.size, Err: err}
}

// coalesce sorts the SQEs by range start and merges overlapping or
// adjacent ranges into groups, restoring enqueue order within each
// group (ops on overlapping ranges do not commute; disjoint groups do).
func (b *Batch) coalesce() []batchGroup {
	idx := make([]int, len(b.sq))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		ox, oy := &b.sq[idx[x]], &b.sq[idx[y]]
		if ox.va != oy.va {
			return ox.va < oy.va
		}
		return idx[x] < idx[y]
	})
	var groups []batchGroup
	for _, i := range idx {
		lo, hi := b.sq[i].va, b.sq[i].end()
		if len(groups) > 0 && lo <= groups[len(groups)-1].hi {
			g := &groups[len(groups)-1]
			if hi > g.hi {
				g.hi = hi
			}
			g.ops = append(g.ops, i)
			continue
		}
		groups = append(groups, batchGroup{lo: lo, hi: hi, ops: []int{i}})
	}
	for gi := range groups {
		sort.Ints(groups[gi].ops)
	}
	return groups
}

// batchCounters is the space's cumulative batch-pipeline activity.
type batchCounters struct {
	batches          atomic.Uint64
	ops              atomic.Uint64
	groups           atomic.Uint64
	shootdowns       atomic.Uint64
	flushRanges      atomic.Uint64
	coalescedFlushes atomic.Uint64
	maxRingDepth     atomic.Int64
}

// BatchStats is a snapshot of the batch pipeline's counters.
type BatchStats struct {
	Batches uint64 // Submit calls with at least one op
	Ops     uint64 // SQEs executed
	Groups  uint64 // coalesced transactions actually run
	// CoalescedLocks counts lock-protocol runs saved by range
	// coalescing: ops minus groups.
	CoalescedLocks uint64
	// Shootdowns counts TLB fan-outs emitted at batch commit — at most
	// one per Submit, however many groups carried flushes.
	Shootdowns uint64
	// FlushRanges counts the VA ranges carried by those fan-outs.
	FlushRanges uint64
	// CoalescedFlushes counts fan-outs avoided: transactions that
	// carried flush records minus fan-outs emitted.
	CoalescedFlushes uint64
	// MaxRingDepth is the high-water SQE count of any one Submit.
	MaxRingDepth int
}

// BatchStats snapshots the space's batch-pipeline counters.
func (a *AddrSpace) BatchStats() BatchStats {
	// Groups is loaded first: a Submit adds its ops before its groups, so
	// the difference cannot wrap.
	groups := a.batch.groups.Load()
	ops := a.batch.ops.Load()
	return BatchStats{
		Batches:          a.batch.batches.Load(),
		Ops:              ops,
		Groups:           groups,
		CoalescedLocks:   ops - groups,
		Shootdowns:       a.batch.shootdowns.Load(),
		FlushRanges:      a.batch.flushRanges.Load(),
		CoalescedFlushes: a.batch.coalescedFlushes.Load(),
		MaxRingDepth:     int(a.batch.maxRingDepth.Load()),
	}
}
