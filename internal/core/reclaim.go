package core

import (
	"fmt"

	"cortenmm/internal/aio"
	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// ReclaimRange runs one sweep of a clock-style reclaim scan over
// [va, va+size): pages whose hardware accessed bit is set get a second
// chance (the bit is cleared), pages found cold are swapped out, up to
// target pages. It is the kswapd building block CortenMM's swapping
// support enables (§4.3), and — like every MMU access — runs entirely
// inside one transaction.
//
// Shared, COW and file-backed pages are skipped (reclaim for those goes
// through the file reverse map instead; see mem.File.UnmapAll).
func (a *AddrSpace) ReclaimRange(core int, va arch.Vaddr, size uint64, target int) (int, error) {
	return a.reclaimRangeNode(core, va, size, target, -1)
}

// reclaimRangeNode is ReclaimRange restricted to pages whose frames
// live on one NUMA node (node < 0 disables the filter) — the building
// block of node-targeted reclaim: freeing frames on the wrong node
// would cost swap I/O without helping the starved zone. Accessed-bit
// clearing is not filtered; the second-chance policy stays global so a
// later cross-node pass still finds honestly cold pages.
func (a *AddrSpace) reclaimRangeNode(core int, va arch.Vaddr, size uint64, target, node int) (int, error) {
	if err := a.checkRange(core, va, size); err != nil {
		return 0, err
	}
	if a.swapDev == nil {
		return 0, fmt.Errorf("%w: no swap device configured", mm.ErrNotSupported)
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)

	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.needSync = true // A-bit clears and unmaps must be seen before reuse

	// One pass enumerates candidate runs — private anonymous 4-KiB
	// mappings, with the hardware A bit deciding hot vs cold per run
	// (runs break where the bit changes). The swaps mutate the tree, so
	// they happen after the iteration. Huge (2-MiB) runs are collected
	// separately: eviction works at 4-KiB granularity, so a cold huge
	// span must first be demoted.
	var runs, hugeRuns []Run
	err = c.IterateMapped(va, va+arch.Vaddr(size), func(r Run) error {
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) != 0 {
			return nil
		}
		if r.Status.HugeLevel == 2 {
			hugeRuns = append(hugeRuns, r)
			return nil
		}
		if r.Status.HugeLevel < 2 {
			runs = append(runs, r)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	schedHit("reclaim:collected")
	// Huge runs get the same second chance as small pages: a young span
	// has its A bits cleared; a cold one is demoted — the translation
	// split back into 512 4-KiB leaves and the block shattered into
	// independent frames — so the *next* sweep can evict it page by
	// page if it stays cold. Demotion changes no translation, so it
	// costs no flush and counts toward no eviction target.
	for _, r := range hugeRuns {
		if r.Accessed {
			if err := c.ClearAccessed(r.VA, r.End()); err != nil {
				return 0, err
			}
			continue
		}
		span := arch.Vaddr(arch.SpanBytes(2))
		for sb := r.VA; sb+span <= r.End(); sb += span {
			if sb < va || sb+span > va+arch.Vaddr(size) {
				continue // only spans fully inside the locked range
			}
			if node >= 0 {
				off := uint64(sb-r.VA) / arch.PageSize
				if a.m.Phys.FrameNode(r.Status.Page+arch.PFN(off)) != node {
					continue
				}
			}
			if c.demoteHuge(sb) {
				a.stats.Demotions.Add(1)
			}
		}
	}
	// Second pass selects cold candidates and submits their writebacks
	// on a per-sweep async queue — all device I/O for the sweep is
	// reaped in one batched completion pass instead of one synchronous
	// round trip per page. The queue is sweep-local: two nodes' kswapd
	// ticks may sweep the same space concurrently, and each must only
	// reap its own completions.
	type swapReq struct {
		page  arch.Vaddr
		perm  arch.Perm
		key   arch.ProtKey
		block uint64
	}
	var (
		reqs     []swapReq
		firstErr error
	)
	q := aio.NewQueue("swapq", mem.ErrOutOfMemory)
	for _, r := range runs {
		if len(reqs) >= target || firstErr != nil {
			break
		}
		if r.Accessed {
			// Recently used: clear the bits (second chance) in one range
			// pass and move on. We hold the covering lock, so plain
			// stores suffice; the queued shootdown forces re-walks that
			// will set them again.
			if err := c.ClearAccessed(r.VA, r.End()); err != nil {
				return 0, err
			}
			continue
		}
		for i := uint64(0); i < r.Pages && len(reqs) < target; i++ {
			page := r.VA + arch.Vaddr(i*arch.PageSize)
			pfn := r.Status.Page + arch.PFN(i)
			head := a.m.Phys.HeadOf(pfn)
			d := a.m.Phys.Desc(head)
			if d.Kind != mem.KindAnon || d.MapCount() != 1 {
				continue
			}
			if node >= 0 && a.m.Phys.FrameNode(pfn) != node {
				continue
			}
			// Cold page: queue its writeback. The frame stays mapped
			// until the completion is reaped, so the data read at reap
			// time is stable (we hold the covering lock).
			block := a.swapDev.AllocBlock()
			wpfn := pfn
			err := q.Submit(aio.SQE{Tag: uint64(len(reqs)), Do: func() error {
				return a.swapDev.Write(block, a.m.Phys.DataPage(wpfn))
			}})
			if err != nil {
				// Refused submission: nothing was queued, the page simply
				// stays resident. Stop growing the batch and report after
				// reaping what was already submitted.
				a.swapDev.FreeBlock(block)
				firstErr = err
				break
			}
			reqs = append(reqs, swapReq{page: page, perm: r.Status.Perm, key: r.Status.Key, block: block})
		}
	}

	schedHit("reclaim:submitted")
	// One reap completes the whole batch; only pages whose write
	// succeeded are unmapped and re-marked swapped. A failed completion
	// frees its swap block and leaves its page resident — the frame is
	// not reclaimed, nothing leaks, and the tree never names a block
	// that was not written.
	reclaimed := 0
	for _, cqe := range q.Reap() {
		req := reqs[cqe.Tag]
		err := cqe.Err
		if err == nil {
			err = func() error {
				if err := c.Unmap(req.page, req.page+arch.PageSize); err != nil {
					return err
				}
				return c.Mark(req.page, req.page+arch.PageSize, pt.Status{
					Kind: pt.StatusSwapped, Perm: req.perm, Dev: a.swapDev, Block: req.block, Key: req.key,
				})
			}()
		}
		if err != nil {
			a.swapDev.FreeBlock(req.block)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.stats.SwapOuts.Add(1)
		reclaimed++
	}
	if rm := a.reclaim; rm != nil {
		st := q.Stats()
		rm.swapQueued.Add(st.Submitted + st.Refused)
		rm.swapCompleted.Add(st.Completed)
		rm.swapFailed.Add(st.Failed + st.Refused)
	}
	return reclaimed, firstErr
}

// demoteHuge splits the huge leaf mapping the 2-MiB span at base back
// into 512 4-KiB leaves and shatters the backing block into independent
// order-0 frames — CollapseHuge's inverse, run under the same covering
// lock as the sweep that found the span cold. The translation split
// (ensureChild) maps the same frames at finer grain, so no flush is
// needed; the block shatter (mem.ShatterBlock) then makes each page
// individually reclaimable. Returns false, changing nothing durable, if
// the span is not an exclusively owned anonymous huge leaf.
func (c *RCursor) demoteHuge(base arch.Vaddr) bool {
	a := c.a
	t, isa := a.tree, a.isa
	pfn, level, vbase := c.root, c.rootLevel, c.rootBase
	for level > 2 {
		span := arch.SpanBytes(level)
		idx := int(uint64(base-vbase) / span)
		pte := t.LoadPTE(pfn, idx)
		if !isa.IsPresent(pte) || isa.IsLeaf(pte, level) {
			return false
		}
		pfn, level, vbase = isa.PFNOf(pte), level-1, vbase+arch.Vaddr(uint64(idx)*span)
	}
	if level != 2 {
		return false
	}
	idx := int(uint64(base-vbase) / arch.SpanBytes(2))
	entryLo := vbase + arch.Vaddr(uint64(idx)*arch.SpanBytes(2))
	pte := t.LoadPTE(pfn, idx)
	if !isa.IsPresent(pte) || !isa.IsLeaf(pte, 2) {
		return false
	}
	head := a.m.Phys.HeadOf(isa.PFNOf(pte))
	d := a.m.Phys.Desc(head)
	if d.Kind != mem.KindAnon || d.MapCount() != 1 || d.Ref.Load() != 1 {
		return false
	}
	// Split the translation first: 512 level-1 leaves over the same
	// frames, taking the block's refcounts to 512/512.
	if _, err := c.ensureChild(pfn, 2, idx, entryLo); err != nil {
		return false
	}
	// Shatter the block. Huge heads never carry reverse-map hints, so
	// no scanner pin can appear between the exclusivity check above and
	// this swap — the shatter cannot fail and strand a half-demoted
	// span (512 PTEs over an unshattered block would be permanently
	// unreclaimable: the 4-KiB path requires MapCount == 1). The children
	// come out as ordinary exclusive anonymous pages, each hinted so
	// migration and compaction can find its mapping.
	return a.m.Phys.ShatterBlock(head, &a.anonOwner, uint64(base))
}

// MadviseDontNeed implements mm.Madviser: release the physical pages of
// [va, va+size) while keeping the virtual allocation. Mapped pages
// revert to their logical not-present status (PrivateAnon for anonymous
// memory, the file status for file mappings), so a later access faults
// in fresh content, exactly like Linux's MADV_DONTNEED.
func (a *AddrSpace) MadviseDontNeed(core int, va arch.Vaddr, size uint64) error {
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
	return a.madviseBody(c, va, va+arch.Vaddr(size))
}

// madviseBody is the transactional work of MadviseDontNeed under an
// already-held cursor (shared with the batch layer).
func (a *AddrSpace) madviseBody(c *RCursor, lo, hi arch.Vaddr) error {
	c.needSync = true // dropped frames are reused immediately

	// Collect resident runs first (the release mutates the tree), then
	// drop each run with one Unmap + one Mark per span of pages whose
	// restored statuses form one sliding sequence — a whole anonymous
	// run costs two range operations instead of two per page.
	var runs []Run
	err := c.IterateMapped(lo, hi, func(r Run) error {
		runs = append(runs, r)
		return nil
	})
	if err != nil {
		return err
	}
	restore := func(lo, hi arch.Vaddr, s pt.Status) error {
		if err := c.Unmap(lo, hi); err != nil {
			return err
		}
		return c.Mark(lo, hi, s)
	}
	for _, r := range runs {
		restoredAt := func(i uint64) pt.Status {
			st := r.Status.SlidBy(i)
			perm := logicalPerm(st.Perm) &^ (arch.PermCOW | arch.PermShared)
			head := a.m.Phys.HeadOf(st.Page)
			if d := a.m.Phys.Desc(head); d.RMap.File != nil {
				kind := pt.StatusPrivateFile
				if st.Perm&arch.PermShared != 0 {
					kind = pt.StatusSharedFile
				}
				return pt.Status{Kind: kind, Perm: perm, File: d.RMap.File, Off: d.RMap.Index, Key: st.Key}
			}
			return pt.Status{Kind: pt.StatusPrivateAnon, Perm: perm, Key: st.Key}
		}
		spanStart := uint64(0)
		spanStatus := restoredAt(0)
		for i := uint64(1); i < r.Pages; i++ {
			if want := restoredAt(i); want != spanStatus.SlidBy(i-spanStart) {
				lo := r.VA + arch.Vaddr(spanStart*arch.PageSize)
				if err := restore(lo, r.VA+arch.Vaddr(i*arch.PageSize), spanStatus); err != nil {
					return err
				}
				spanStart, spanStatus = i, want
			}
		}
		if err := restore(r.VA+arch.Vaddr(spanStart*arch.PageSize), r.End(), spanStatus); err != nil {
			return err
		}
	}
	return nil
}
