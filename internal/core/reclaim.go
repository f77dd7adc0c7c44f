package core

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// ReclaimRange runs one sweep of a clock-style reclaim scan over
// [va, va+size): pages whose hardware accessed bit is set get a second
// chance (the bit is cleared), pages found cold are swapped out, up to
// target pages. It is the kswapd building block CortenMM's swapping
// support enables (§4.3), and — like every MMU access — runs entirely
// inside one transaction.
//
// Shared, COW and file-backed pages are skipped — file-backed meaning
// every page whose entry names a file, a COW-broken private file page
// too: a Swapped word would take the place of its origin — and nothing
// else reclaims them, so file-backed and shared pages stay resident
// until unmapped.
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
	return a.evictRange(core, va, size, func(c *RCursor) (int, error) {
		return a.evict(c, va, va+arch.Vaddr(size), target, node)
	})
}

// SwapOut writes every resident private anonymous page in [va, va+size)
// to the machine's swap device and replaces its mapping with a Swapped status:
// the sweep's eviction with nothing given a second chance — the range's
// accessed bits are cleared first — and no target short of the range.
// Shared, COW and file-backed pages are skipped, as ReclaimRange says.
// A 2-MiB huge span fully inside the range is demoted, as the sweep
// does: the same frames stay mapped at 4-KiB grain
// (translation-preserving), and the next SwapOut evicts them. Returns
// the number of pages swapped.
func (a *AddrSpace) SwapOut(core int, va arch.Vaddr, size uint64) (int, error) {
	return a.evictRange(core, va, size, func(c *RCursor) (int, error) {
		hi := va + arch.Vaddr(size)
		if err := c.ClearAccessed(va, hi); err != nil {
			return 0, err
		}
		return a.evict(c, va, hi, int(size/arch.PageSize), -1)
	})
}

// evictRange is the entry of both evictions of [va, va+size): the range
// gate, then the kernel-time bracket and the tick, and body under the
// transaction it runs in. A refused call is neither timed nor ticked.
func (a *AddrSpace) evictRange(core int, va arch.Vaddr, size uint64, body func(c *RCursor) (int, error)) (int, error) {
	if err := a.checkRange(core, va, size); err != nil {
		return 0, err
	}
	defer a.stats.KernelExit(a.stats.KernelEnter())
	a.m.OpTick(core)
	c, err := a.Lock(core, va, va+arch.Vaddr(size))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.needSync = true // A-bit clears and unmaps must be seen before the frames are reused
	return body(c)
}

// evict is the one eviction body, run under a cursor covering [lo, hi):
// hot runs get their accessed bits cleared, cold 2-MiB spans are
// demoted, and up to target cold 4-KiB pages — private, not COW,
// anonymous in frame and origin, mapped exactly once, on node if
// node >= 0 — are broken (breakWrites: one grace period for the sweep),
// written to the swap device and re-marked Swapped. A store to a candidate after the break
// faults and waits for this lock, so the block holds the page's last
// store; a page whose write fails gets its block freed and its
// permission back.
func (a *AddrSpace) evict(c *RCursor, lo, hi arch.Vaddr, target, node int) (int, error) {
	// One pass enumerates candidate runs — private anonymous mappings,
	// with the hardware A bit deciding hot vs cold per run (runs break
	// where the bit changes). The swaps mutate the tree, so they happen
	// after the iteration.
	var runs []Run
	err := c.IterateMapped(lo, hi, func(r Run) error {
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) == 0 && r.Status.HugeLevel() <= 2 && !r.Origin.Allocated() {
			runs = append(runs, r)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	fault.ReclaimCollected.Pause()
	type swapReq struct {
		page  arch.Vaddr
		pfn   arch.PFN
		perm  arch.Perm
		key   arch.ProtKey
		block uint64
		err   error
	}
	var (
		reqs  []swapReq
		spans []tlb.Range // reqs' pages, coalesced
	)
	for _, r := range runs {
		huge := r.Status.HugeLevel() == 2
		if !huge && len(reqs) >= target {
			continue // the sweep is full: later small runs keep their bits for the next one
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
		if huge {
			// Eviction works at 4-KiB granularity, so a cold huge span is
			// first demoted — the translation split back into 512 4-KiB
			// leaves and the block shattered into independent frames — and
			// the *next* sweep can evict it page by page if it stays cold.
			// Demotion changes no translation, so it costs no flush and
			// counts toward no eviction target.
			a.demoteRun(c, r, node)
			continue
		}
		for i := uint64(0); i < r.Pages && len(reqs) < target; i++ {
			pfn := r.Status.Page() + arch.PFN(i)
			d := a.m.Phys.Desc(a.m.Phys.HeadOf(pfn))
			if d.Kind != mem.KindAnon || d.MapCount() != 1 || node >= 0 && a.m.Phys.FrameNode(pfn) != node {
				continue
			}
			page := r.VA + arch.Vaddr(i*arch.PageSize)
			if n := len(spans); n > 0 && spans[n-1].Hi == page {
				spans[n-1].Hi += arch.PageSize
			} else {
				spans = append(spans, tlb.Range{Lo: page, Hi: page + arch.PageSize})
			}
			reqs = append(reqs, swapReq{page: page, pfn: pfn, perm: r.Status.Perm, key: r.Status.Key()})
		}
	}
	if len(reqs) == 0 {
		return 0, nil
	}
	if err := c.breakWrites(spans); err != nil {
		return 0, err
	}
	dev := a.m.Phys.Swap()
	var written uint64
	for i := range reqs {
		req := &reqs[i]
		req.block = dev.AllocBlock()
		if req.err = dev.Write(req.block, a.m.Phys.DataPage(req.pfn)); req.err == nil {
			written++
		}
	}
	if d, ok := a.m.Phys.Pressure().(*Daemon); ok {
		d.swapCompleted.Add(written)
		d.swapFailed.Add(uint64(len(reqs)) - written)
	}

	fault.ReclaimSubmitted.Pause()
	// Only pages whose write succeeded are re-marked swapped (Mark
	// releases the mapping it replaces, and the stored word takes its own
	// reference on the block). The allocation's reference goes right
	// after, so a block no word names is freed. A failed page gets its
	// permission back — left copy-on-write, it would be skipped by every
	// later sweep — so nothing leaks and the tree never names a block
	// that was not written.
	reclaimed, isa := 0, a.isa
	var firstErr error
	for _, req := range reqs {
		err := req.err
		if err == nil {
			err = c.Mark(req.page, req.page+arch.PageSize, pt.SwappedStatus(req.perm, req.block).WithKey(req.key))
		}
		dev.FreeBlock(req.block)
		if err != nil {
			// One present leaf inside the cursor: the walk cannot fail.
			_ = c.editRange(req.page, req.page+arch.PageSize, 0, 0, func(pte uint64, level int) uint64 {
				return isa.WithPerm(pte, req.perm, level)
			})
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		a.stats.SwapOuts.Add(1)
		reclaimed++
	}
	return reclaimed, firstErr
}

// demoteRun demotes every whole 2-MiB leaf of the cold huge run r (on
// node, if node >= 0). Runs arrive clipped to the transaction, so a leaf
// that straddles its edge is left alone.
func (a *AddrSpace) demoteRun(c *RCursor, r Run, node int) {
	span := arch.Vaddr(arch.SpanBytes(2))
	for sb := (r.VA + span - 1) &^ (span - 1); sb+span <= r.End(); sb += span {
		if node >= 0 && a.m.Phys.FrameNode(r.Status.Page()+arch.PFN(uint64(sb-r.VA)/arch.PageSize)) != node {
			continue
		}
		if c.demoteHuge(sb) {
			a.stats.Demotions.Add(1)
		}
	}
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
	e, err := c.entry(base, 2, false)
	if err != nil || e.level != 2 || !a.isa.IsPresent(e.pte) || !a.isa.IsLeaf(e.pte, 2) {
		return false
	}
	head := a.m.Phys.HeadOf(a.isa.PFNOf(e.pte))
	d := a.m.Phys.Desc(head)
	if d.Kind != mem.KindAnon || d.MapCount() != 1 || d.Ref.Load() != 1 {
		return false
	}
	// Split the translation first: 512 level-1 leaves over the same
	// frames, taking the block's refcounts to 512/512.
	if _, err := c.ensureChild(e.pfn, 2, e.idx, e.lo(base)); err != nil {
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

// MadviseDontNeed implements mm.Madviser: release the physical pages
// and swap blocks of [va, va+size) while keeping the virtual allocation.
// Mapped and swapped pages revert to their allocation status — the file
// page they came from, PrivateAnon for anonymous memory — so a later
// access faults in fresh content, exactly like Linux's MADV_DONTNEED.
func (a *AddrSpace) MadviseDontNeed(core int, va arch.Vaddr, size uint64) error {
	return a.call(core, op{kind: BatchMadvise, va: va, size: size})
}

// madviseBody is the transactional work of MadviseDontNeed: collect the
// resident and swapped runs first (the release mutates the tree), then
// drop each with one Mark, which releases the frame or block it
// replaces.
func (a *AddrSpace) madviseBody(c *RCursor, lo, hi arch.Vaddr) error {
	c.needSync = true // dropped frames are reused immediately
	var runs []Run
	err := c.Iterate(lo, hi, func(r Run) error {
		if r.Status.Kind == pt.StatusMapped || r.Status.Kind == pt.StatusSwapped {
			runs = append(runs, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := c.Mark(r.VA, r.End(), nonResident(r)); err != nil {
			return err
		}
	}
	return nil
}

// nonResident returns the status the mapped or swapped run r reverts to
// when its frame or block is dropped but the allocation stays: its
// origin, or PrivateAnon when it has none, with the permission and key
// its PTE (or Swapped word) holds.
func nonResident(r Run) pt.Status {
	s := r.Origin
	if !s.Allocated() {
		s = pt.Status{Kind: pt.StatusPrivateAnon}
	}
	s.Perm = logicalPerm(r.Status.Perm) &^ (arch.PermCOW | arch.PermShared)
	return s.WithKey(r.Status.Key())
}
