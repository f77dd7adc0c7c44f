package core

import (
	"errors"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

// This file is the walk engine: the one recursive driver every range
// operation of the cursor rides (walkRange) and the one descent every
// single-address operation rides (entry). walkRange classifies each
// entry of the locked subtree as {present leaf, present table,
// metadata/empty} × {fully covered, partially covered} and dispatches to
// a walkOps visitor; all of the start/end index arithmetic, splitting
// (ensureChild), teardown (releaseLeaf/removeChild/dropMeta) and pruning
// lives here, so a new operation is a visitor struct or a few lines
// after entry, not a new descent. Everything runs under the cursor's
// covering lock; hooks may therefore read and write PTEs and metadata
// freely but must not lock, block, or touch the tree outside the
// cursor's range.

// Sentinel errors steering the engine; they never escape to callers.
var (
	// errStopWalk aborts the walk early with success (found what we
	// were looking for).
	errStopWalk = errors.New("stop walk")
	// errWalkDescend, returned by onMeta for a fully covered absent
	// entry at level > 1, asks the engine to split the entry
	// (ensureChild, pushing any metadata down) and descend into it —
	// how a single-pass populate materializes pages under a 1-GiB
	// metadata span without pre-splitting the whole range.
	errWalkDescend = errors.New("descend")
)

// walkOps is a range-walk visitor. Hooks receive the PT page and index
// of the entry, its level, the base VA of the entry's span, and the
// clipped sub-range [subLo, subHi) of the walk that falls inside it.
// A nil hook skips those entries. Any error from a hook aborts the walk
// (except the two sentinels above).
type walkOps struct {
	// readOnly walks never modify the tree: partially covered leaves
	// and metadata entries are delivered to the hooks clipped instead
	// of being split.
	readOnly bool
	// clearFull tears fully covered entries down before onMeta runs:
	// leaves are released, whole subtrees unlinked and freed, metadata
	// dropped (releasing swap blocks). The Mark/Unmap family.
	clearFull bool
	// splitEmpty also splits partially covered entries that are empty
	// (no PTE, no metadata) — needed when the visitor writes new state
	// into the partial entry (Mark with a valid status).
	splitEmpty bool
	// pruneEmpty removes a child PT page that is empty after a partial
	// descend.
	pruneEmpty bool
	// ignoreSplitErr skips entries whose split failed (PT-page OOM)
	// instead of aborting — Unmap is not obliged to split huge spans it
	// cannot afford to.
	ignoreSplitErr bool

	// onLeaf visits a present leaf entry (level 1 or huge).
	onLeaf func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr, pte uint64) error
	// onLeafTable, when set, visits a fully covered, present level-1
	// table in place of its 512 entries: the engine's per-table hook, for
	// a visitor that reads only the table's PageState counters or does
	// its per-entry work in one pass over the table (Protect's sweep).
	onLeafTable func(table arch.PFN, base arch.Vaddr) error
	// onMeta visits a non-present entry (which may hold metadata, or
	// nothing). With clearFull set it runs after the teardown, i.e. on a
	// now-empty entry — Mark's hook writes the new status there.
	onMeta func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr) error
}

// clearWalk is the teardown visitor shared by Unmap and the engine's own
// full-subtree clearing.
var clearWalk = walkOps{clearFull: true, pruneEmpty: true, ignoreSplitErr: true}

// walkRange drives a visitor over [lo, hi) under the subtree rooted at
// the PT page pfn (entries at the given level, page base VA base). It is
// the only recursive walk under a cursor (forkCopy, like pt.Tree.Destroy,
// recurses over a whole tree it owns exclusively).
func (c *RCursor) walkRange(v *walkOps, pfn arch.PFN, level int, base, lo, hi arch.Vaddr) error {
	t, isa := c.a.tree, c.a.isa
	span := arch.SpanBytes(level)
	start := int(uint64(lo-base) / span)
	end := int(uint64(hi-1-base) / span)
	for idx := start; idx <= end; idx++ {
		entryLo := base + arch.Vaddr(uint64(idx)*span)
		entryHi := entryLo + arch.Vaddr(span)
		subLo, subHi := maxVA(lo, entryLo), minVA(hi, entryHi)
		full := subLo == entryLo && subHi == entryHi
		pte := t.LoadPTE(pfn, idx)
		present := isa.IsPresent(pte)

		if full {
			if present && v.clearFull {
				if isa.IsLeaf(pte, level) {
					c.releaseLeaf(pte, level, entryLo)
					t.SetPTE(pfn, idx, 0)
				} else {
					child := isa.PFNOf(pte)
					if level == 2 {
						// The child is a level-1 leaf table that dies
						// wholesale: sweep it directly instead of paying
						// the generic per-entry visitor machinery.
						c.clearLeafTable(child, entryLo)
					} else {
						// Full coverage below: the clear visitor never
						// needs to split, so this cannot fail.
						_ = c.walkRange(&clearWalk, child, level-1, entryLo, entryLo, entryHi)
					}
					c.removeChild(pfn, idx, child)
				}
				present = false
				// Safe spill point: every queued free under this entry has
				// its PTE cleared and its flush range recorded.
				c.maybeSpill()
			}
			if present {
				if isa.IsLeaf(pte, level) {
					if v.onLeaf == nil {
						continue
					}
					if err := v.onLeaf(pfn, idx, level, entryLo, subLo, subHi, pte); err != nil {
						return err
					}
					continue
				}
				if level == 2 && v.onLeafTable != nil {
					if err := v.onLeafTable(isa.PFNOf(pte), entryLo); err != nil {
						return err
					}
					continue
				}
				if err := c.walkRange(v, isa.PFNOf(pte), level-1, entryLo, subLo, subHi); err != nil {
					return err
				}
				continue
			}
			if v.clearFull {
				c.dropMeta(pfn, idx, level)
			}
			if v.onMeta == nil {
				continue
			}
			switch err := v.onMeta(pfn, idx, level, entryLo, subLo, subHi); err {
			case nil:
			case errWalkDescend:
				// The hook wants pages under this entry: split and recurse.
				if level == 1 {
					panic("core: walk descend requested at level 1")
				}
				child, err := c.ensureChild(pfn, level, idx, entryLo)
				if err != nil {
					if v.ignoreSplitErr {
						continue
					}
					return err
				}
				if err := c.walkRange(v, child, level-1, entryLo, subLo, subHi); err != nil {
					return err
				}
				if v.pruneEmpty && t.Empty(child) {
					c.removeChild(pfn, idx, child)
				}
			default:
				return err
			}
			continue
		}

		// Partially covered entry.
		if level == 1 {
			panic("core: partial entry at level 1")
		}
		if present && !isa.IsLeaf(pte, level) {
			// A table: descend clipped; no split needed.
			if err := c.walkRange(v, isa.PFNOf(pte), level-1, entryLo, subLo, subHi); err != nil {
				return err
			}
			if !v.readOnly && v.pruneEmpty {
				if child := isa.PFNOf(pte); t.Empty(child) {
					c.removeChild(pfn, idx, child)
				}
			}
			continue
		}
		if v.readOnly {
			// Deliver the clipped leaf or metadata without splitting.
			if present {
				if v.onLeaf != nil {
					if err := v.onLeaf(pfn, idx, level, entryLo, subLo, subHi, pte); err != nil {
						return err
					}
				}
			} else if v.onMeta != nil {
				if err := v.onMeta(pfn, idx, level, entryLo, subLo, subHi); err != nil {
					return err
				}
			}
			continue
		}
		// Mutating walk over part of a huge leaf or metadata span: split
		// it (huge leaves become 512 smaller ones; metadata is pushed
		// down) and recurse. Entries with nothing in them are split only
		// when the visitor writes into empty ranges (splitEmpty).
		if !present && !v.splitEmpty && t.Meta(pfn, idx) == 0 {
			continue
		}
		child, err := c.ensureChild(pfn, level, idx, entryLo)
		if err != nil {
			if v.ignoreSplitErr {
				continue
			}
			return err
		}
		if err := c.walkRange(v, child, level-1, entryLo, subLo, subHi); err != nil {
			return err
		}
		if v.pruneEmpty && t.Empty(child) {
			c.removeChild(pfn, idx, child)
		}
	}
	return nil
}

// walk runs a visitor over [lo, hi) from the cursor's covering page.
func (c *RCursor) walk(v *walkOps, lo, hi arch.Vaddr) error {
	err := c.walkRange(v, c.root, c.rootLevel, c.rootBase, lo, hi)
	if err == errStopWalk {
		return nil
	}
	return err
}

// slot is where the single-address step stopped: entry idx of the
// level-`level` PT page pfn, and the PTE loaded from it. (Four words, so
// it travels in registers.)
type slot struct {
	pfn   arch.PFN
	idx   int
	level int
	pte   uint64
}

// lo returns the base VA of the slot's span, given an address inside it.
func (s slot) lo(va arch.Vaddr) arch.Vaddr {
	return va &^ arch.Vaddr(arch.SpanBytes(s.level)-1)
}

// entry is the single-address step: from the cursor's covering page down
// to the entry that decides va — the first one that is not a table, or
// the one at level stop, whichever comes first. With ensure set the path
// is materialised all the way to stop (ensureChild: a huge leaf in the
// way is split, an upper-level status pushed down), which is the only
// way it can fail once va is inside the transaction. Besides walkRange
// it is the only place that turns a VA into a PTE index under a cursor;
// Query and Map call it on the fault path, so it takes no closure and
// allocates nothing.
func (c *RCursor) entry(va arch.Vaddr, stop int, ensure bool) (slot, error) {
	if err := c.checkRange(va, va+arch.PageSize); err != nil {
		return slot{}, err
	}
	t, isa := c.a.tree, c.a.isa
	pfn, level, base := c.root, c.rootLevel, c.rootBase
	for {
		span := arch.SpanBytes(level)
		idx := int(uint64(va-base) / span)
		pte := t.LoadPTE(pfn, idx)
		if level <= stop {
			return slot{pfn, idx, level, pte}, nil
		}
		table := isa.IsPresent(pte) && !isa.IsLeaf(pte, level)
		if !table && !ensure {
			return slot{pfn, idx, level, pte}, nil
		}
		base += arch.Vaddr(uint64(idx) * span)
		child := isa.PFNOf(pte)
		if !table {
			var err error
			if child, err = c.ensureChild(pfn, level, idx, base); err != nil {
				return slot{}, err
			}
		}
		pfn, level = child, level-1
	}
}

// Run is one maximal range of pages sharing a sliding status, as yielded
// by Iterate: page i of the run has status Status.SlidBy(i). Mapped runs
// are physically contiguous (the frame advances page by page); file runs
// advance their file offset; Swapped never coalesces (every block is
// distinct).
type Run struct {
	VA    arch.Vaddr
	Pages uint64
	// Status of the first page. For Mapped runs, HugeLevel records the
	// level of the backing leaves (0 for 4-KiB pages, 2 or 3 for huge),
	// letting consumers skip or special-case huge mappings.
	Status pt.Status
	// Dirty and Accessed are the hardware D/A bits, uniform across the
	// run (runs break where the bits change). Mapped runs only.
	Dirty, Accessed bool
}

// End returns the VA one past the run.
func (r Run) End() arch.Vaddr { return r.VA + arch.Vaddr(r.Pages*arch.PageSize) }

// runAccum coalesces (va, pages, status) deliveries into maximal runs:
// a delivery extends the current run iff it is VA-adjacent, its D/A bits
// agree, and its status continues the run's sliding sequence.
type runAccum struct {
	cur Run
	fn  func(Run) error
}

func (ra *runAccum) add(va arch.Vaddr, pages uint64, st pt.Status, dirty, accessed bool) error {
	if ra.cur.Pages > 0 && ra.cur.End() == va && ra.cur.Dirty == dirty && ra.cur.Accessed == accessed &&
		ra.cur.Status.SlidBy(ra.cur.Pages) == st {
		ra.cur.Pages += pages
		return nil
	}
	if err := ra.flush(); err != nil {
		return err
	}
	ra.cur = Run{VA: va, Pages: pages, Status: st, Dirty: dirty, Accessed: accessed}
	return nil
}

func (ra *runAccum) flush() error {
	if ra.cur.Pages == 0 {
		return nil
	}
	r := ra.cur
	ra.cur = Run{}
	return ra.fn(r)
}

// leafRun is the shared onLeaf hook of Iterate and IterateMapped: one
// present leaf entry becomes one (possibly clipped) mapped-run delivery.
func (ra *runAccum) leafRun(isa arch.ISA) func(arch.PFN, int, int, arch.Vaddr, arch.Vaddr, arch.Vaddr, uint64) error {
	return func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr, pte uint64) error {
		st := pt.MappedStatus(isa.PFNOf(pte)+arch.PFN(uint64(subLo-entryLo)/arch.PageSize), isa.PermOf(pte), isa.ProtKeyOf(pte), level)
		return ra.add(subLo, uint64(subHi-subLo)/arch.PageSize, st, isa.Dirty(pte), isa.Accessed(pte))
	}
}

// Iterate yields every allocated page in [lo, hi) as maximal runs, in
// address order, with one single pass over the locked subtree —
// O(pages + depth) against O(pages × depth) for a per-page Query loop.
// Gaps (Invalid pages) are skipped. fn's error aborts the iteration and
// is returned. The tree is not modified; callers that mutate based on
// the runs should collect them first (the usual pattern) or mutate only
// behind the iteration point.
func (c *RCursor) Iterate(lo, hi arch.Vaddr, fn func(Run) error) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	t := c.a.tree
	ra := runAccum{fn: fn}
	v := walkOps{
		readOnly: true,
		onLeaf:   ra.leafRun(c.a.isa),
		onMeta: func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr) error {
			w := t.Meta(pfn, idx)
			if w == 0 {
				return nil
			}
			return ra.add(subLo, uint64(subHi-subLo)/arch.PageSize,
				pt.Unpack(pt.Slide(w, uint64(subLo-entryLo)/arch.PageSize)), false, false)
		},
	}
	if err := c.walk(&v, lo, hi); err != nil {
		return err
	}
	return ra.flush()
}

// IterateMapped is Iterate restricted to resident pages: only present
// leaves are delivered, and — because the visitor has no metadata hook —
// the walk skips every non-present entry without so much as a metadata
// read. Operations that only act on resident pages (msync, swap-out,
// reclaim, madvise) scan sparse mappings at one PTE load per entry
// instead of one status construction + run comparison per entry.
func (c *RCursor) IterateMapped(lo, hi arch.Vaddr, fn func(Run) error) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	ra := runAccum{fn: fn}
	v := walkOps{
		readOnly: true,
		onLeaf:   ra.leafRun(c.a.isa),
	}
	if err := c.walk(&v, lo, hi); err != nil {
		return err
	}
	return ra.flush()
}

// PopulateAnon materializes every not-yet-resident private anonymous
// page in [lo, hi) in a single pass (MAP_POPULATE): huge-marked spans
// get a huge leaf when a contiguous block is available (falling back to
// 4-KiB frames otherwise), everything else gets one frame per page.
// Pages that are already mapped, file-backed, or swapped are left for
// the regular fault path. Fails with ErrSegv on unreadable spans and
// with the allocator's error on OOM; the caller owns cleanup of the
// partially populated range.
func (c *RCursor) PopulateAnon(lo, hi arch.Vaddr) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	a := c.a
	t, isa := a.tree, a.isa
	v := walkOps{
		pruneEmpty: true,
		onMeta: func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr) error {
			w := t.Meta(pfn, idx)
			s := pt.Unpack(w)
			if s.Kind != pt.StatusPrivateAnon {
				return nil
			}
			if !logicalPerm(s.Perm).Contains(arch.PermRead) {
				return errSegv
			}
			if level > 1 {
				if s.HugeLevel() == level && isa.SupportsHugeAt(level) {
					order := (level - 1) * arch.IndexBits
					if frame, err := a.m.Phys.AllocFrames(c.core, order, mem.KindAnon); err == nil {
						leaf := isa.EncodeLeaf(frame, s.Perm, level)
						if s.Key() != 0 {
							leaf = isa.WithProtKey(leaf, s.Key())
						}
						t.SetPTE(pfn, idx, leaf)
						t.SetMetaWord(pfn, idx, 0)
						a.m.Phys.Desc(a.m.Phys.HeadOf(frame)).Map()
						return nil
					}
					// No contiguous block: fall through to 4-KiB pages.
				}
				if level == 2 && subLo == entryLo && subHi == entryLo+arch.Vaddr(arch.SpanBytes(2)) {
					return c.bulkFillL2(pfn, idx, entryLo, w)
				}
				return errWalkDescend
			}
			frame, err := a.m.Phys.AllocFrame(c.core, mem.KindAnon)
			if err != nil {
				return err
			}
			leaf := isa.EncodeLeaf(frame, s.Perm, 1)
			if s.Key() != 0 {
				leaf = isa.WithProtKey(leaf, s.Key())
			}
			t.SetPTE(pfn, idx, leaf)
			t.SetMetaWord(pfn, idx, 0)
			a.mapAnon(frame, s.Perm, entryLo)
			return nil
		},
	}
	return c.walk(&v, lo, hi)
}

// mapAnon counts the PTE just written at va for the order-0 anonymous
// frame a populate allocated, as populateOwner says.
func (a *AddrSpace) mapAnon(frame arch.PFN, perm arch.Perm, va arch.Vaddr) {
	if owner := a.populateOwner(perm); owner != nil {
		a.m.Phys.Desc(frame).MapExclusive(owner, uint64(va))
	} else {
		a.m.Phys.Desc(frame).Map()
	}
}

// populateOwner is whom a populated anonymous page is mapped exclusively
// by, hint and all: this space, unless the span's permission says the
// page is shared or copy-on-write (nil: counted without a hint).
func (a *AddrSpace) populateOwner(perm arch.Perm) *mem.AnonOwner {
	if perm&(arch.PermShared|arch.PermCOW) != 0 {
		return nil
	}
	return &a.anonOwner
}

// bulkFillL2 is PopulateAnon's fast path for a fully covered, entirely
// virtual (PrivateAnon metadata, nothing resident) level-2 entry: build
// the leaf table directly instead of descending entry by entry. The
// generic descend path pays two metadata writes per page — ensureChild
// pushes the span's status into all 512 child entries, then mapping each
// page clears its entry again — plus one allocator round trip per frame.
// Here the fresh child table's metadata stays untouched (all Invalid,
// exactly the final state of a fully mapped table), the 512 frames come
// from one batch allocation that starts each one's life already mapped
// here (populateOwner), and the table is written while nothing
// points to it (pt.Tree.FillUnlinked): its PTEs are plain stores, and
// the SetPTE that links it is the store that publishes them.
//
// On frame exhaustion the pages that did get frames stay mapped and the
// remainder of the span gets its PrivateAnon status restored into the
// child table, so — like the slow path — nothing is lost and the caller
// owns cleanup of the partially populated range.
func (c *RCursor) bulkFillL2(pfn arch.PFN, idx int, entryLo arch.Vaddr, w uint64) error {
	a, s := c.a, pt.Unpack(w)
	t, isa := a.tree, a.isa
	child, err := t.AllocPTPage(c.core, 1)
	if err != nil {
		return err
	}
	if a.proto == ProtocolAdv {
		a.state(child).Mu.Lock()
		c.trackLocked(child)
	}
	var frames [arch.PTEntries]arch.PFN
	n := a.m.Phys.AllocAnonBatch(c.core, a.populateOwner(s.Perm), uint64(entryLo), frames[:])
	var leaves [arch.PTEntries]uint64
	for i := 0; i < n; i++ {
		leaves[i] = isa.EncodeLeaf(frames[i], s.Perm, 1)
		if s.Key() != 0 {
			leaves[i] = isa.WithProtKey(leaves[i], s.Key())
		}
	}
	t.FillUnlinked(child, leaves[:n])
	t.SetPTE(pfn, idx, isa.EncodeTable(child))
	t.SetMetaWord(pfn, idx, 0)
	if n < arch.PTEntries {
		t.FillMeta(child, n, w, 1)
		return mem.ErrOutOfMemory
	}
	return nil
}

// ClearAccessed clears the hardware accessed bit on every present leaf
// in [lo, hi) — the clock scan's second-chance step — and queues the
// invalidations so subsequent walks set the bit afresh. Huge leaves
// participate too: the huge-aware reclaim path uses their bit to decide
// between keeping a hot span and demoting a cold one.
func (c *RCursor) ClearAccessed(lo, hi arch.Vaddr) error {
	if err := c.checkRange(lo, hi); err != nil {
		return err
	}
	t, isa := c.a.tree, c.a.isa
	mask := isa.SetAccessed(0)
	v := walkOps{
		readOnly: true,
		onLeaf: func(pfn arch.PFN, idx, level int, entryLo, subLo, subHi arch.Vaddr, pte uint64) error {
			if isa.Accessed(pte) {
				t.StorePTE(pfn, idx, pte&^mask)
				c.noteFlush(entryLo, level)
			}
			return nil
		},
	}
	return c.walk(&v, lo, hi)
}
