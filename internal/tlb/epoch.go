package tlb

import (
	"runtime"
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
// is a cell's only invalidation history: it makes the last ringLen
// bumps precise, and an entry filled before the oldest record still in
// the ring misses conservatively — which is always legal for a cache.
const (
	// asidCells is the number of epoch cells per core; ASIDs that
	// collide mod asidCells share invalidation generations (safe: the
	// collision only ever causes extra misses).
	asidCells = 64
	// ringLen is how many recent invalidation records a cell keeps for
	// precise lazy validation. An entry more than ringLen generations
	// old has lost part of its history and validates as a miss; 16
	// keeps a burst of 16 range shootdowns between two lookups of one
	// entry precise (TestRingBurstNoStaleDrops).
	ringLen = 16
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

// validate decides whether a cache entry of asid covering [lo, hi)
// filled at generation g is still usable. It replays every record in
// (g, cur] from the ring; the entry survives only if none of them
// overlaps the span. The overlap test is a range intersection, not
// point membership: a 4-KiB record must kill a 2-MiB huge entry it
// falls inside, and a huge-span record must kill the 4-KiB entries it
// covers. A history that has left the ring (cur-g > ringLen), an
// overwritten or torn record, or a full-ASID record in the gap
// invalidates conservatively. Returns the cell's current generation so
// the caller can re-stamp a surviving entry.
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
		if cur-g > ringLen || c.allGen.Load() > g {
			return cur, false // history left the ring, or a full-ASID flush since the fill
		}
		live := true
		for gg := g + 1; gg <= cur; gg++ {
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
