package mem

// Frame migration and zone compaction (§4.5-adjacent machinery for the
// THP pipeline): the mem layer owns candidate discovery, pinning, and
// target allocation; the installed Pressure's Migrate runs the locked
// break-before-make copy + remap through the page-table transaction
// protocol. Reverse-map hints (FrameDesc.AnonRMap) are advisory — Migrate
// validates everything under the lock before touching a PTE, exactly
// like the file reverse maps of §4.5.

import (
	"errors"
	"fmt"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// hugeOrder is the buddy order of a 2-MiB block (one L2 leaf).
const hugeOrder = arch.IndexBits

// MigrateReq describes one candidate migration handed to Pressure.Migrate:
// move the exclusive anonymous 4-KiB frame Src, believed mapped at VA in
// Owner (an *AddrSpace, typed any to keep the dependency direction
// mem <- core), to the freshly allocated frame Dst. Src carries a pin
// taken by the scanner; Dst carries the allocation reference, which the
// remap consumes on success.
type MigrateReq struct {
	Owner any
	VA    uint64
	Src   arch.PFN
	Dst   arch.PFN
}

// ErrNotMovable is returned when a frame cannot be migrated: no
// Pressure installed, the frame is not an exclusive anonymous 4-KiB
// page with a reverse-map hint, or revalidation under the lock failed.
var ErrNotMovable = fmt.Errorf("mem: frame not movable")

// pinCandidate pins src if it looks like a movable page — an exclusive
// (mapped once, Ref==1 before the pin) anonymous order-0 frame with a
// reverse-map hint, which only a frame mapped once has — and returns the
// hint. All pre-pin probes read only atomics; Kind is read after the
// pin, whose CAS acquires initFrames' Ref release, so the descriptor
// fields are stable. On any mismatch the pin is dropped and ok is false.
func (m *PhysMem) pinCandidate(core int, src arch.PFN) (owner any, va uint64, ok bool) {
	d := &m.frames[src]
	if _, va := d.AnonRMap(); va == 0 || d.tail.Load() != 0 || !m.TryGet(src) {
		return nil, 0, false
	}
	owner, va = d.AnonRMap()
	if owner == nil || va == 0 || d.Kind != KindAnon || d.order.Load() != 0 ||
		d.tail.Load() != 0 || d.Ref.Load() != 2 {
		m.Put(core, src)
		return nil, 0, false
	}
	return owner, va, true
}

// migrate is the one migration path: it pins src, counts the attempt,
// takes a target from target and hands the pair to the Pressure's
// Migrate, then drops the pin and frees a target the move did not
// consume. Every migration, single or compacting, runs through it.
func (m *PhysMem) migrate(core int, src arch.PFN, target func() (arch.PFN, error)) error {
	p := m.Pressure()
	if p == nil {
		return ErrNotMovable
	}
	owner, va, ok := m.pinCandidate(core, src)
	if !ok {
		return ErrNotMovable
	}
	defer m.Put(core, src) // drop the scanner pin
	m.migAttempted.Add(1)
	if fault.MemMigrateCopy.Fire() {
		m.migFailed.Add(1)
		return fault.MemMigrateCopy.Errorf(ErrOutOfMemory)
	}
	dst, err := target()
	if err != nil {
		m.migFailed.Add(1)
		return err
	}
	if !p.Migrate(core, MigrateReq{Owner: owner, VA: va, Src: src, Dst: dst}) {
		m.Put(core, dst)
		m.migFailed.Add(1)
		return ErrNotMovable
	}
	m.migMigrated.Add(1)
	return nil
}

// MigrateFrame moves one movable frame to node (the NUMA balancer passes
// the sustained accessor's home).
func (m *PhysMem) MigrateFrame(core int, src arch.PFN, node int) error {
	return m.migrate(core, src, func() (arch.PFN, error) {
		return m.AllocFrameOn(core, node, KindAnon)
	})
}

// errNoTarget ends a compaction pass: no free frame lies above the
// candidate.
var errNoTarget = fmt.Errorf("mem: no compaction target above the candidate")

// CompactZone runs one compaction pass over node's zone: it walks PFNs
// from the low end, one movable candidate at a time, and migrates each
// into the highest free frame strictly above it (allocHighFrame never
// splits a block of hugeOrder or above — those are the goal), so the
// vacated low frames coalesce back into high-order blocks. Sources
// ascend and targets descend, so the pass ends at the first candidate
// with nothing free above it. maxPages bounds the work (<=0 means the
// whole zone). Returns the number of pages migrated.
func (m *PhysMem) CompactZone(core, node, maxPages int) int {
	if m.Pressure() == nil {
		return 0
	}
	z := &m.zones[node]
	if maxPages <= 0 {
		maxPages = int(z.frames())
	}
	migrated := 0
	for pfn := z.base; pfn < z.limit && migrated < maxPages; pfn++ {
		err := m.migrate(core, pfn, func() (arch.PFN, error) {
			dst, ok := z.buddy.allocHighFrame(pfn, hugeOrder)
			if !ok {
				return 0, errNoTarget
			}
			m.initFrames(KindAnon, 0, nil, dst)
			return dst, nil
		})
		if err == nil {
			migrated++
		} else if errors.Is(err, errNoTarget) {
			break
		}
	}
	return migrated
}

// ShatterBlock splits a 2-MiB anonymous block whose huge mapping has
// already been split into 512 4-KiB PTEs (Ref == MapCount == 512 on the
// head) into 512 independent order-0 descriptors, each mapped exclusively
// by owner at its page of the span at va, so each page can be reclaimed,
// migrated or freed on its own — the demotion counterpart of
// CollapseHuge. The children's data payloads alias sub-slices of the
// head's 2-MiB buffer: storage identity is preserved, so a writer
// racing through a not-yet-flushed stale translation still lands in the
// same bytes. Returns false (and changes nothing) when the head is not
// in the expected post-split state — e.g. a transient scanner pin holds
// an extra reference; callers just retry on a later pass.
func (m *PhysMem) ShatterBlock(head arch.PFN, owner *AnonOwner, va uint64) bool {
	d := &m.frames[head]
	if d.tail.Load() != 0 || int(d.order.Load()) != hugeOrder || d.Kind != KindAnon {
		return false
	}
	nframes := int64(1) << hugeOrder
	// Materialize the buffer before any child publishes: Data on a child
	// must never size a fresh buffer from the rewritten order.
	buf := m.Data(head)
	// Claim the whole block first: the 512 per-PTE references collapse
	// into the head's single one. CAS failure means an extra reference
	// (a scanner pin) is in flight — abort with nothing published.
	if !d.Ref.CompareAndSwap(nframes, 1) {
		return false
	}
	d.UnmapN(uint64(nframes))
	d.MapExclusive(owner, va)
	d.order.Store(0)
	for i := int64(1); i < nframes; i++ {
		c := &m.frames[head+arch.PFN(i)]
		c.Kind = KindAnon
		c.PT = nil
		c.RMap = d.RMap
		c.words = nil
		sub := buf[uint64(i)*arch.PageSize : uint64(i+1)*arch.PageSize : uint64(i+1)*arch.PageSize]
		c.data.Store(&sub)
		c.aliased = true
		c.order.Store(0)
		c.Ref.Store(1)
		c.MapExclusive(owner, va+uint64(i)*arch.PageSize)
		c.tail.Store(0) // published last: the child is now independent
	}
	// The head keeps the full 2-MiB buffer; DataPage slices page 0 out
	// of it, and freeing the head drops it.
	return true
}

// MigrationStats is a snapshot of frame-migration telemetry.
type MigrationStats struct {
	// Attempted counts candidate pages handed to the migrator (pinned
	// and validated); Migrated of those completed the copy+remap; Failed
	// failed the check under the lock, hit fault injection, or could not
	// get a target frame.
	Attempted, Migrated, Failed uint64
}

// MigrationStats snapshots the machine's migration counters.
func (m *PhysMem) MigrationStats() MigrationStats {
	return MigrationStats{
		Attempted: m.migAttempted.Load(),
		Migrated:  m.migMigrated.Load(),
		Failed:    m.migFailed.Load(),
	}
}

// FreeByOrder returns node's free-block count per buddy order
// (lock-free, from the published mirrors).
func (m *PhysMem) FreeByOrder(node int) [MaxOrder + 1]int64 {
	var out [MaxOrder + 1]int64
	for o := range out {
		out[o] = m.zones[node].buddy.freeBlocksAt(o)
	}
	return out
}

// FragIndex computes the external-fragmentation index of node's zone
// for the given order: the fraction of free memory sitting in blocks
// too small to serve a 2^order request (0 = perfectly coalesced, →1 =
// shattered). The analog of Linux's extfrag index, and the trigger for
// background compaction.
func (m *PhysMem) FragIndex(node, order int) float64 {
	var free, usable int64
	for o := 0; o <= MaxOrder; o++ {
		f := m.zones[node].buddy.freeBlocksAt(o) << o
		free += f
		if o >= order {
			usable += f
		}
	}
	if free <= 0 {
		return 0
	}
	return 1 - float64(usable)/float64(free)
}

// NumaCandidate reports whether pfn shows a sustained access streak
// (>= minStreak) from a node other than the frame's own, returning that
// accessor node. Only frames with a live reverse-map hint qualify.
func (m *PhysMem) NumaCandidate(pfn arch.PFN, minStreak uint64) (int, bool) {
	d := &m.frames[pfn]
	if _, va := d.AnonRMap(); va == 0 || d.tail.Load() != 0 {
		return 0, false
	}
	node, streak := d.accessStreak()
	if node < 0 || streak < minStreak || node == m.zoneOf(pfn) {
		return 0, false
	}
	return node, true
}
