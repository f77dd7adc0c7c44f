package core

import (
	"fmt"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/rcu"
	"cortenmm/internal/tlb"
)

// Error aliases so callers can match on the shared mm errors.
var (
	errBadRange = mm.ErrBadRange
	errSegv     = mm.ErrSegv
)

// Query returns the status of the virtual page at va (Figure 4): Mapped
// for a present PTE, the recorded metadata status for virtually
// allocated pages, Invalid otherwise.
func (c *RCursor) Query(va arch.Vaddr) (pt.Status, error) {
	e, err := c.entry(va, 1, false)
	if err != nil {
		return pt.Status{}, err
	}
	isa := c.a.isa
	pageIn := uint64(va-e.lo(va)) / arch.PageSize
	if isa.IsPresent(e.pte) {
		return pt.MappedStatus(isa.PFNOf(e.pte)+arch.PFN(pageIn), isa.PermOf(e.pte), isa.ProtKeyOf(e.pte), 1), nil
	}
	return c.a.tree.GetMeta(e.pfn, e.idx).SlidBy(pageIn), nil
}

// AnyAllocated reports whether anything (mapped or virtually allocated)
// exists in [lo, hi) — the existence check mmap performs (Figure 8 L5).
func (c *RCursor) AnyAllocated(lo, hi arch.Vaddr) (bool, error) {
	if err := c.checkRange(lo, hi); err != nil {
		return false, err
	}
	found := false
	v := walkOps{
		readOnly: true,
		onLeaf: func(arch.PFN, int, int, arch.Vaddr, arch.Vaddr, arch.Vaddr, uint64) error {
			found = true
			return errStopWalk
		},
		onMeta: func(pfn arch.PFN, idx, _ int, _, _, _ arch.Vaddr) error {
			if c.a.tree.Meta(pfn, idx) != 0 {
				found = true
				return errStopWalk
			}
			return nil
		},
	}
	if err := c.walk(&v, lo, hi); err != nil {
		return false, err
	}
	return found, nil
}

// Map maps the physical frame at va with the given permission (Figure
// 4). level 1 maps a 4-KiB page; levels 2 and 3 map huge pages whose
// frame must be a naturally aligned block of matching order. The
// caller's frame reference is transferred to the mapping. An existing
// mapping at va is replaced (the COW-break path relies on this).
func (c *RCursor) Map(va arch.Vaddr, frame arch.PFN, level int, perm arch.Perm) error {
	return c.MapKeyed(va, frame, level, perm, 0)
}

// MapKeyed is Map with an MPK protection key tag.
func (c *RCursor) MapKeyed(va arch.Vaddr, frame arch.PFN, level int, perm arch.Perm, key arch.ProtKey) error {
	return c.install(va, frame, level, perm, key, 0, false)
}

// install is the body of Map and PlacePage: it points va's level-`level`
// entry at frame, materialising the path to it and releasing whatever
// the entry held, and keeps beside the leaf the word naming the page's
// origin (pt.Tree.MapLeaf). The frame reference the caller holds becomes
// the mapping's. counted says the frame's map count already includes this
// mapping (a page TakePage detached, whose origin word it carries): then
// only its hint moves to va. Otherwise a page-cache frame's origin is its
// own file page, and its file is held across the store, as MmapFile
// holds it across its Mark: the entry may name no file yet. Once the
// path exists that hold is the one step that can fail (the file's first
// reference, with the object table full), and it fails before the
// entry is written.
func (c *RCursor) install(va arch.Vaddr, frame arch.PFN, level int, perm arch.Perm, key arch.ProtKey, origin uint64, counted bool) error {
	if level < 1 {
		return fmt.Errorf("%w: map at level %d", errBadRange, level)
	}
	span := arch.SpanBytes(level)
	if uint64(va)%span != 0 {
		return fmt.Errorf("%w: map at %#x not aligned to level-%d span", errBadRange, va, level)
	}
	if level > 1 {
		// A huge leaf: its whole span must lie in the transaction (entry
		// checks only va's page), and the page holding its entry inside
		// the locked subtree — the caller must use LockLevel.
		if err := c.checkRange(va, va+arch.Vaddr(span)); err != nil {
			return err
		}
		if !c.a.isa.SupportsHugeAt(level) {
			return fmt.Errorf("%w: level-%d leaves unsupported on %s", mm.ErrNotSupported, level, c.a.isa.Name())
		}
		if level > c.rootLevel {
			return fmt.Errorf("%w: level-%d map needs a cursor locked at level >= %d (have %d)",
				errBadRange, level, level, c.rootLevel)
		}
	}
	e, err := c.entry(va, level, true)
	if err != nil {
		return err
	}
	head := c.a.m.Phys.HeadOf(frame)
	d := c.a.m.Phys.Desc(head)
	t, isa := c.a.tree, c.a.isa
	if f := d.RMap.File; f != nil && !counted {
		if err := f.Hold(); err != nil {
			return err
		}
		defer f.Release(1)
		kind := pt.StatusPrivateFile
		if perm&arch.PermShared != 0 {
			kind = pt.StatusSharedFile
		}
		origin, _ = t.Pack(pt.FileStatus(kind, 0, f, d.RMap.Index), 1) // f is held: it has an id
	}
	if isa.IsPresent(e.pte) {
		if !isa.IsLeaf(e.pte, level) {
			// A finer-grained subtree sits here; clear it first. The
			// range covers the entry exactly, so no split can be needed
			// and the clear cannot fail.
			_ = c.walkRange(&clearWalk, e.pfn, level, baseOfSpan(va, level), va, va+arch.Vaddr(span))
		} else {
			c.releaseLeaf(e.pte, level, va)
		}
	}
	leaf := isa.EncodeLeaf(frame, perm, level)
	if key != 0 {
		leaf = isa.WithProtKey(leaf, key)
	}
	t.MapLeaf(e.pfn, e.idx, leaf, origin)
	// One write to the descriptor: an exclusive anonymous 4-KiB mapping
	// records (space, va) with its count so the compaction/NUMA scanners
	// can find the PTE; any other shape only counts. The hint is advisory
	// — migration revalidates under the lock (§4.5).
	if level == 1 && head == frame && d.Kind == mem.KindAnon &&
		perm&(arch.PermShared|arch.PermCOW) == 0 {
		d.MapExclusive(&c.a.anonOwner, uint64(va))
		if counted {
			d.Unmap()
		}
	} else if !counted {
		d.Map()
	}
	return nil
}

// Mark records status for every page in [lo, hi) (Figure 4), replacing
// whatever was there — existing mappings are unmapped first. Large
// aligned spans are stored at upper-level entries, so marking a 1-GiB
// region costs O(1) entries, not 256 Ki of them (§3.3's optimization).
// A file status holds its file for the whole walk: the teardown may give
// back the file's last reference (a page of it re-marked not
// resident), and the words stored after it must not name a recycled id.
// A Swapped status likewise holds a reference on its block, and one
// naming a block that is not allocated is refused.
func (c *RCursor) Mark(lo, hi arch.Vaddr, s pt.Status) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	t := c.a.tree
	// Packed once, out here; the visitor slides the word by an add.
	w, err := t.Pack(s, uint64(hi-lo)/arch.PageSize)
	if err == nil && !t.Register(w, 1) {
		err = fmt.Errorf("status %+v names a file no longer mapped or a block not allocated", s)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", errBadRange, err)
	}
	v := walkOps{
		clearFull:  true,
		pruneEmpty: true,
		splitEmpty: w != 0,
		onMeta: func(pfn arch.PFN, idx, _ int, entryLo, _, _ arch.Vaddr) error {
			// The engine already tore the entry down; record the new
			// status, slid to this entry's offset within [lo, hi).
			if w != 0 {
				t.SetMetaWord(pfn, idx, pt.Slide(w, uint64(entryLo-lo)/arch.PageSize))
			}
			return nil
		},
	}
	err = c.walk(&v, lo, hi)
	t.Unregister(w, 1)
	return err
}

// Unmap removes every mapping and status in [lo, hi) (Figure 4),
// freeing page-table pages that become empty — under CortenMM_adv via
// the stale-mark + RCU-monitor path of Figure 6. It is exactly the
// engine's teardown visitor: split failures under OOM skip the entry
// (unmap is not obliged to split huge spans it cannot afford to).
func (c *RCursor) Unmap(lo, hi arch.Vaddr) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	return c.walk(&clearWalk, lo, hi)
}

// Protect changes the permission of every page in [lo, hi) (the mark
// variant mprotect uses). Mapped pages get new hardware permissions with
// COW preserved per the §4.3 rules; virtually allocated spans get their
// recorded permission replaced.
func (c *RCursor) Protect(lo, hi arch.Vaddr, perm arch.Perm) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	c.needSync = true // tightening must be visible before return
	field, bits := pt.PermEdit(perm)
	return c.editRange(lo, hi, field, bits, func(pte uint64, level int) uint64 {
		return c.protectPTE(pte, level, perm)
	})
}

// editRange is the walk Protect and SetProtKey share: every allocated
// status word in [lo, hi) has field replaced by bits, and every present
// leaf is rewritten by edit and queued for a flush. A fully covered leaf
// table is swept in one pass over its words and gets one flush record
// for its whole span — more than its holes need, never less. The PTE
// stores stay atomic: the walker reads the table.
func (c *RCursor) editRange(lo, hi arch.Vaddr, field, bits uint64, edit func(pte uint64, level int) uint64) error {
	t, isa := c.a.tree, c.a.isa
	v := walkOps{
		onLeaf: func(pfn arch.PFN, idx, level int, entryLo, _, _ arch.Vaddr, pte uint64) error {
			t.StorePTE(pfn, idx, edit(pte, level))
			c.noteFlush(entryLo, level)
			return nil
		},
		onLeafTable: func(table arch.PFN, base arch.Vaddr) error {
			st := t.State(table)
			if st.MetaCnt > 0 {
				for i := 0; i < arch.PTEntries; i++ {
					t.EditMeta(table, i, field, bits)
				}
			}
			if st.Present > 0 {
				words := t.Words(table)
				for i := range words {
					if pte := atomic.LoadUint64(&words[i]); isa.IsPresent(pte) {
						t.StorePTE(table, i, edit(pte, 1))
					}
				}
				c.noteFlush(base, 2)
			}
			return nil
		},
		onMeta: func(pfn arch.PFN, idx, _ int, _, _, _ arch.Vaddr) error {
			t.EditMeta(pfn, idx, field, bits)
			return nil
		},
	}
	return c.walk(&v, lo, hi)
}

// protectPTE computes the new PTE for a permission change, applying the
// COW rules of §4.3: shared mappings take the permission directly;
// private writable pages stay (or become) COW when the frame is shared
// or file-backed.
func (c *RCursor) protectPTE(pte uint64, level int, perm arch.Perm) uint64 {
	isa := c.a.isa
	if isa.Shared(pte) {
		return isa.WithPerm(pte, perm|arch.PermShared, level)
	}
	p := perm &^ (arch.PermCOW | arch.PermShared)
	if perm&arch.PermWrite != 0 {
		head := c.a.m.Phys.HeadOf(isa.PFNOf(pte))
		d := c.a.m.Phys.Desc(head)
		if d.MapCount() > 1 || d.Kind == mem.KindFile {
			p = p&^arch.PermWrite | arch.PermCOW
		}
	}
	return isa.WithPerm(pte, p, level)
}

// SetProtKey tags every page in [lo, hi) — mapped or virtually
// allocated — with an MPK protection key (§6.7's Intel MPK feature).
// ISAs without MPK leave PTEs unchanged but still record the key in
// metadata so it applies when pages are faulted in.
func (c *RCursor) SetProtKey(lo, hi arch.Vaddr, key arch.ProtKey) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	if key > arch.MaxProtKey {
		return fmt.Errorf("%w: protection key %d", errBadRange, key)
	}
	c.needSync = true
	isa := c.a.isa
	field, bits := pt.KeyEdit(key)
	return c.editRange(lo, hi, field, bits, func(pte uint64, _ int) uint64 {
		return isa.WithProtKey(pte, key)
	})
}

// ensureChild returns the child PT page under (pfn, idx), creating it if
// absent. A huge leaf in the way is split into level-1 leaves, and an
// upper-level status is pushed down into the child's metadata array —
// the two split operations that keep upper-level compression honest.
func (c *RCursor) ensureChild(pfn arch.PFN, level, idx int, entryLo arch.Vaddr) (arch.PFN, error) {
	t, isa := c.a.tree, c.a.isa
	pte := t.LoadPTE(pfn, idx)
	if isa.IsPresent(pte) && !isa.IsLeaf(pte, level) {
		return isa.PFNOf(pte), nil
	}
	child, err := t.AllocPTPage(c.core, level-1)
	if err != nil {
		return 0, err
	}
	if c.a.proto == ProtocolAdv {
		c.a.state(child).Mu.Lock()
		c.trackLocked(child)
	}
	subPages := arch.SpanBytes(level-1) / arch.PageSize
	if isa.IsPresent(pte) {
		// Split a huge leaf: 512 leaves one level down over the same
		// frames. Each new leaf takes its own reference and mapcount on
		// the block head; translations stay valid so no flush is needed.
		perm := isa.PermOf(pte)
		key := isa.ProtKeyOf(pte)
		basePFN := isa.PFNOf(pte)
		var leaves [arch.PTEntries]uint64
		for i := range leaves {
			leaves[i] = isa.EncodeLeaf(basePFN+arch.PFN(uint64(i)*subPages), perm, level-1)
			if key != 0 {
				leaves[i] = isa.WithProtKey(leaves[i], key)
			}
		}
		t.FillUnlinked(child, leaves[:])
		head := c.a.m.Phys.HeadOf(basePFN)
		c.a.m.Phys.GetN(head, arch.PTEntries-1)
		c.a.m.Phys.Desc(head).MapN(arch.PTEntries - 1)
	} else if w := t.Meta(pfn, idx); w != 0 {
		t.FillMeta(child, 0, w, subPages)
		t.SetMetaWord(pfn, idx, 0)
	}
	t.SetPTE(pfn, idx, isa.EncodeTable(child))
	return child, nil
}

// releaseLeaf tears down one present leaf entry: mapcount and reference
// drop on the frame head (the actual free is deferred until after the
// TLB shootdown) and the translation is queued for invalidation.
func (c *RCursor) releaseLeaf(pte uint64, level int, va arch.Vaddr) {
	head := c.a.m.Phys.HeadOf(c.a.isa.PFNOf(pte))
	d := c.a.m.Phys.Desc(head)
	d.Unmap()
	c.cleared += arch.SpanBytes(level) / arch.PageSize
	// Flush before queueing the free: spillDeferred may hand the queued
	// frames to the RCU monitor mid-walk, and the shootdown it issues
	// must already cover every translation to a queued frame.
	c.noteFlush(va, level)
	c.freed = rcu.AppendRun(c.freed, head)
}

// clearLeafTable tears down a fully covered level-1 table in one sweep:
// one atomic load plus one mapcount drop per present page, one pass over
// its words if it has any, one coalesced flush for the whole 2-MiB span.
// The generic walk's per-entry work — SetPTE(0) with Present
// bookkeeping, a metadata probe per entry — is skipped: the table is
// about to be unlinked wholesale (the caller follows with removeChild),
// and a fresh PT page's word array is zero-allocated, so the dying PTEs
// need no scrubbing. Until the parent entry is cleared, lockless
// traversers may still read the live leaves; that window existed with
// per-entry clearing too and is covered by the RCU-deferred frame
// release.
func (c *RCursor) clearLeafTable(child arch.PFN, base arch.Vaddr) {
	t, isa := c.a.tree, c.a.isa
	phys := c.a.m.Phys
	st := t.State(child)
	// One span-wide flush record covers the whole table; recorded before
	// any frame is queued so a mid-sweep spill's shootdown covers them
	// (see releaseLeaf). Span-aware validation in the TLB makes this
	// single 2-MiB record kill cached huge entries too, not just their
	// base page.
	c.noteFlush(base, 2)
	c.cleared += uint64(st.Present + st.MetaCnt)
	t.DropMeta(child)
	if st.Present > 0 {
		words := t.Words(child)
		for i := range words {
			w := atomic.LoadUint64(&words[i])
			if !isa.IsPresent(w) {
				continue
			}
			head := phys.HeadOf(isa.PFNOf(w))
			d := phys.Desc(head)
			d.Unmap()
			c.freed = rcu.AppendRun(c.freed, head)
		}
		st.Present = 0
	}
}

// noteFlush queues a TLB invalidation for the leaf span at va,
// coalescing adjacent spans into one [lo, hi) range — a range walk that
// tears down N contiguous pages accumulates one range, not N addresses,
// and Close issues one range shootdown for it. Huge leaves simply
// extend the range by their span (our TLBs cache 4-KiB translations, so
// the whole span must die).
func (c *RCursor) noteFlush(va arch.Vaddr, level int) {
	if c.flushAll {
		return
	}
	hi := va + arch.Vaddr(arch.SpanBytes(level))
	if n := len(c.flush); n > 0 && c.flush[n-1].Hi == va {
		c.flush[n-1].Hi = hi
		return
	}
	c.flush = append(c.flush, tlb.Range{Lo: va, Hi: hi})
}

// removeChild unlinks an (empty) child PT page from its parent and
// frees it via stale-marking plus the RCU monitor (Figure 6, L29-L34).
// Both protocols need the grace period: CortenMM_adv for its lockless
// traversal, and either for the simulated MMU walker (access), which
// takes no PT-page lock and may already be inside the page.
func (c *RCursor) removeChild(parent arch.PFN, idx int, child arch.PFN) {
	a := c.a
	a.tree.SetPTE(parent, idx, 0)
	st := a.state(child)
	st.Stale.Store(true)
	if c.untrackLocked(child) {
		st.Mu.Unlock()
	}
	core := c.core
	a.m.Defer(core, func() { a.tree.ReleasePTPage(core, child) })
}

// dropMeta clears the metadata entry of a level-`level` PT page
// (SetMetaWord gives back what the word holds).
func (c *RCursor) dropMeta(pfn arch.PFN, idx, level int) {
	if c.a.tree.SetMetaWord(pfn, idx, 0) != 0 {
		c.cleared += arch.SpanBytes(level) / arch.PageSize
	}
}

func maxVA(a, b arch.Vaddr) arch.Vaddr {
	if a > b {
		return a
	}
	return b
}

func minVA(a, b arch.Vaddr) arch.Vaddr {
	if a < b {
		return a
	}
	return b
}
