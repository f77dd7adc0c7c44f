package tlb

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
)

// This file is the generation (epoch) machinery that replaces eager
// cache sweeps. Each core owns a small table of epoch cells indexed by
// asid mod asidCells. Invalidating a range or a whole ASID on a core is
// one generation bump on the right cell plus a ring record describing
// what died; cache entries remember the generation they were filled at
// and are validated lazily on lookup. Any core may bump any core's
// cells — this is the only cross-core write path, which is what makes
// Lookup/Insert free of remote contention.
//
// The staleness contract (after "Relaxed virtual memory in Armv8-A"):
// a lookup may conservatively miss at any time, but must never return a
// translation that an already-completed invalidation covered. The ring
// makes recent bumps precise; records aging out of the ring spill to a
// per-cell overflow list so deep bursts still replay precisely, and
// only histories trimmed off the overflow list invalidate
// conservatively — which is always legal for a cache.
const (
	// asidCells is the number of epoch cells per core; ASIDs that
	// collide mod asidCells share invalidation generations (safe: the
	// collision only ever causes extra misses).
	asidCells = 64
	// ringLen bounds how many recent invalidation records a cell keeps
	// in its lock-free ring for precise lazy validation. Records that
	// age out of the ring are no longer lost: the writer spills them to
	// the cell's mutex-guarded overflow list, so even an unmap storm
	// far deeper than the ring replays precisely (staledrops in the
	// fig14-tlb rows quantified the old wrap-to-conservative-miss
	// behaviour under exactly that pattern).
	ringLen = 16
	// overflowCap bounds the overflow list; at capacity the oldest half
	// is discarded and entries filled before the cut validate
	// conservatively — bursts beyond ~overflowCap invalidations between
	// two lookups of one entry are no longer worth remembering.
	overflowCap = 512
)

// recAll in a record tag marks a full-ASID invalidation. All records
// kill colliding ASIDs too: this keeps the emptiness invariant behind
// presence filtering sound (see maybePresent).
const recAll = uint64(1) << 32

// invRec is one ring entry: what generation g invalidated.
type invRec struct {
	gen atomic.Uint64
	tag atomic.Uint64 // ASID | recAll
	lo  atomic.Uint64
	hi  atomic.Uint64
}

// ovRec is one overflow record — an invRec whose generation is implied
// by its position (ovBase + index). Plain fields: ovMu guards them.
type ovRec struct {
	tag    uint64
	lo, hi uint64
}

// epochCell is the per-(core, asid-class) invalidation clock.
type epochCell struct {
	// seq is the writer seqlock: odd while a bump is in flight. Readers
	// snapshot ring records under an even seq; writers serialize by CAS.
	seq    atomic.Uint64
	gen    atomic.Uint64 // current generation
	allGen atomic.Uint64 // generation of the latest full-ASID record
	// lastIns is 1 + the cell generation observed by the owning core's
	// most recent Insert, written before the entry is published. The
	// cell provably holds no valid entries when lastIns <= allGen, which
	// is what lets shootdown initiators skip this core entirely.
	lastIns atomic.Uint64
	ring    [ringLen]invRec

	// The overflow list holds records evicted from the ring, off the
	// lookup fast path: only validations of entries more than ringLen
	// generations old read it, and only bumps that overwrite a live
	// ring slot write it. Generations are contiguous (one record per
	// bump, evicted in bump order), so overflow[i] is the record of
	// generation ovBase+i and replay is a direct index, not a search.
	ovMu     sync.Mutex
	overflow []ovRec
	ovBase   uint64
}

// bump advances the cell's generation with a record of what died.
func (c *epochCell) bump(asid ASID, lo, hi arch.Vaddr, all bool) {
	for spin := 0; ; spin++ {
		s := c.seq.Load()
		if s&1 == 0 && c.seq.CompareAndSwap(s, s+1) {
			break
		}
		if spin > 64 {
			runtime.Gosched()
		}
	}
	g := c.gen.Load() + 1
	r := &c.ring[g&(ringLen-1)]
	if old := r.gen.Load(); old != 0 && old == g-ringLen {
		c.spill(old, r.tag.Load(), r.lo.Load(), r.hi.Load())
	}
	tag := uint64(asid)
	if all {
		tag |= recAll
	}
	r.gen.Store(g)
	r.tag.Store(tag)
	r.lo.Store(uint64(lo))
	r.hi.Store(uint64(hi))
	if all {
		c.allGen.Store(g)
	}
	c.gen.Store(g)
	c.seq.Add(1)
}

// spill moves a record aging out of the ring onto the overflow list.
// Called only inside bump's seqlock write section, so spills arrive in
// strict generation order and the list stays contiguous.
func (c *epochCell) spill(gen, tag, lo, hi uint64) {
	c.ovMu.Lock()
	switch {
	case tag&recAll != 0:
		// A full-ASID record kills every fill at or before its
		// generation, and validate's allGen early-out already rejects
		// those — nothing older than this record can ever be consulted
		// again, so the whole list resets.
		c.overflow = c.overflow[:0]
		c.ovBase = gen + 1
	default:
		if len(c.overflow) == 0 {
			c.ovBase = gen
		} else if len(c.overflow) == overflowCap {
			n := copy(c.overflow, c.overflow[overflowCap/2:])
			c.overflow = c.overflow[:n]
			c.ovBase += overflowCap / 2
		}
		c.overflow = append(c.overflow, ovRec{tag: tag, lo: lo, hi: hi})
	}
	c.ovMu.Unlock()
}

// overflowLive replays the spilled records of generations (g, upTo]
// against an entry of asid covering [lo, hi). Returns false if any
// record overlaps, or if the history was trimmed before g. The list
// never holds a full-ASID record: spilling one resets it.
func (c *epochCell) overflowLive(asid ASID, lo, hi arch.Vaddr, g, upTo uint64) bool {
	c.ovMu.Lock()
	defer c.ovMu.Unlock()
	if g+1 < c.ovBase {
		return false // trimmed: the fill predates remembered history
	}
	for gg := g + 1; gg <= upTo; gg++ {
		i := int(gg - c.ovBase)
		if i >= len(c.overflow) {
			break // not spilled yet — the ring scan covers it
		}
		r := &c.overflow[i]
		if ASID(r.tag) != asid {
			continue
		}
		if r.lo < uint64(hi) && r.hi > uint64(lo) {
			return false
		}
	}
	return true
}

// validate decides whether a cache entry of asid covering [lo, hi)
// filled at generation g is still usable. It replays every record in
// (g, cur] — from the overflow list for the part older than the ring,
// from the ring for the recent part; the entry survives only if none of
// them overlaps the span. The overlap test is a range intersection, not
// point membership: a 4-KiB record must kill a 2-MiB huge entry it
// falls inside, and a huge-span record must kill the 4-KiB entries it
// covers. Overwritten or torn records, and histories trimmed off the
// overflow list, invalidate conservatively. Returns the cell's current
// generation so the caller can re-stamp a surviving entry.
func (c *epochCell) validate(asid ASID, lo, hi arch.Vaddr, g uint64) (gen uint64, live bool) {
	for attempt := 0; attempt < 4; attempt++ {
		s := c.seq.Load()
		if s&1 != 0 {
			continue
		}
		cur := c.gen.Load()
		if cur == g {
			return cur, true
		}
		if c.allGen.Load() > g {
			return cur, false // a full-ASID flush happened since the fill
		}
		live, start := true, g
		if cur-g > ringLen {
			// Long burst: the records in (g, cur-ringLen] have aged out
			// of the ring — replay them from the overflow list, then
			// the ring covers the rest.
			start = cur - ringLen
			live = c.overflowLive(asid, lo, hi, g, start)
		}
		for gg := start + 1; live && gg <= cur; gg++ {
			r := &c.ring[gg&(ringLen-1)]
			if r.gen.Load() != gg {
				live = false // record overwritten mid-read
				break
			}
			tag := r.tag.Load()
			if tag&recAll != 0 {
				live = false
				break
			}
			if ASID(tag) != asid {
				continue
			}
			if r.lo.Load() < uint64(hi) && r.hi.Load() > uint64(lo) {
				live = false
				break
			}
		}
		if c.seq.Load() != s {
			continue
		}
		return cur, live
	}
	return c.gen.Load(), false
}

// maybePresent reports whether the cell can hold valid entries. False
// means every fill the owner published predates a full-ASID record, so
// a shootdown initiator may skip this core — our mm_cpumask analogue.
// Under-reporting never happens; over-reporting (e.g. after precise
// local flushes) only costs a redundant bump.
func (c *epochCell) maybePresent() bool {
	return c.lastIns.Load() > c.allGen.Load()
}
