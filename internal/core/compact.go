package core

// The compaction half of the Daemon: the background memory-defragmentation
// and THP pipeline. A khugepaged-style scanner promotes hot, fully
// resident 2-MiB spans to huge mappings, a kcompactd analogue compacts a
// zone when its order-9 fragmentation index crosses a threshold, direct
// compaction serves the allocator's order>0 slow path before it declares
// failure, and (optionally) a NUMA-balancing pass migrates pages toward
// their sustained remote accessors. Like reclaim it has no thread of its
// own: all background work runs from the daemon's Tick, on a core that
// holds no PT-page locks.

import (
	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
)

// CompactConfig tunes the pipeline. Zero values select defaults;
// negative values disable the corresponding pass.
type CompactConfig struct {
	// ScanSpans is the khugepaged quantum: 2-MiB spans examined per
	// tick (default 8, <0 disables the scanner).
	ScanSpans int
	// FragThreshold triggers background compaction when the node's
	// order-9 fragmentation index exceeds it (default 0.75, <0
	// disables background compaction; direct compaction still runs).
	FragThreshold float64
	// NumaStreak is the remote-access streak after which a page is
	// migrated to its accessor's node (0 disables NUMA balancing).
	NumaStreak uint64
}

func (c *CompactConfig) fill() {
	if c.ScanSpans == 0 {
		c.ScanSpans = 8
	}
	if c.FragThreshold == 0 {
		c.FragThreshold = 0.75
	}
}

const (
	// promoteScans is how many quanta must see a span fully resident and
	// young before it is collapsed.
	promoteScans = 2
	// coldResetScans is how many consecutive cold scans erase a span's
	// accumulated young sightings.
	coldResetScans = 8
	// compactPages caps the frames migrated per compaction pass.
	compactPages = 256
	// numaScan is the number of frames the NUMA balancer probes per tick.
	numaScan = 256
)

// AttachCompaction switches on the compaction half of m's daemon,
// creating the daemon on first use. Attaching again replaces the
// configuration.
func AttachCompaction(m *cpusim.Machine, cfg CompactConfig) *Daemon {
	cfg.fill()
	d := daemonOf(m)
	if cfg.NumaStreak > 0 {
		m.Phys.SetNumaTracking(true)
	}
	d.compactCfg.Store(&cfg)
	return d
}

// compactTick runs one pipeline quantum. The InTx guard is defensive:
// ticks fire at operation entry, before any PT lock is taken, but a
// tick arriving inside a transaction must not lock another space.
func (d *Daemon) compactTick(core int, cfg *CompactConfig) {
	if d.m.InTx(core) {
		return
	}
	if !d.busy.CompareAndSwap(false, true) {
		return
	}
	defer d.busy.Store(false)
	d.scanQuantum(core, cfg)
	d.backgroundCompact(core, cfg)
	d.numaBalance(core, cfg)
}

// Compact is direct compaction for the allocator's order>0 slow path:
// compact the requesting node's zone so the failed high-order
// allocation can be retried. Refused while the compaction half is off,
// and when the allocating goroutine is inside a transaction: a migration
// locks whichever space maps its frame, which may be the one the caller
// holds (the PT locks are not reentrant) or one whose holder waits on
// the caller's — lock order between spaces, which direct reclaim settles
// by skipping held spaces and admitting one lock-holding reclaimer at a
// time. Callers that need high-order memory, like CollapseHuge, allocate
// before locking for exactly this reason.
func (d *Daemon) Compact(core, node, order int) bool {
	cfg := d.compactCfg.Load()
	if cfg == nil {
		return false
	}
	if d.m.InTx(core) {
		d.directRefused.Add(1)
		return false
	}
	if !d.compacting[node].CompareAndSwap(false, true) {
		return false
	}
	defer d.compacting[node].Store(false)
	d.directRuns.Add(1)
	moved := d.m.Phys.CompactZone(core, node, compactPages)
	// The vacated frames sit in the RCU monitor; like direct reclaim,
	// drive this core's tick so they reach the buddy before the caller
	// retries.
	d.m.Reap(core)
	return moved > 0
}

// backgroundCompact is the kcompactd analogue: when the ticking core's
// node is too fragmented to serve order-9 requests, move movable pages
// out of the zone's low region so free blocks re-coalesce — before an
// allocation has to pay for it.
func (d *Daemon) backgroundCompact(core int, cfg *CompactConfig) {
	if cfg.FragThreshold < 0 {
		return
	}
	node := d.m.NodeOf(core)
	if d.m.Phys.FragIndex(node, arch.IndexBits) < cfg.FragThreshold {
		return
	}
	if !d.compacting[node].CompareAndSwap(false, true) {
		return
	}
	defer d.compacting[node].Store(false)
	d.m.Phys.CompactZone(core, node, compactPages)
}

// numaBalance probes a window of the frame table for pages with a
// sustained remote-access streak and migrates each to its accessor's
// node (the NUMA-balancing satellite of §4.5's policy layer).
func (d *Daemon) numaBalance(core int, cfg *CompactConfig) {
	if cfg.NumaStreak == 0 || d.m.Phys.Nodes() < 2 {
		return
	}
	phys := d.m.Phys
	n := phys.NFrames()
	if n == 0 {
		return
	}
	start := int(d.numaHand.Add(int64(numaScan))) - numaScan
	for i := 0; i < numaScan; i++ {
		pfn := arch.PFN((start + i) % n)
		if node, ok := phys.NumaCandidate(pfn, cfg.NumaStreak); ok {
			if phys.MigrateFrame(core, pfn, node) == nil {
				d.numaMoves.Add(1)
			}
		}
	}
}

// scanQuantum is one khugepaged step: visit the first eligible space
// from the scanner's hand and scan the next ScanSpans 2-MiB spans of
// its allocated chunks, resuming at the space's scanner hand.
func (d *Daemon) scanQuantum(core int, cfg *CompactConfig) {
	if cfg.ScanSpans < 0 {
		return
	}
	d.visit(core, &d.scan, func(a *AddrSpace) bool {
		// Candidates are fully allocated level-1 tables: a partly
		// allocated table cannot be fully resident, a huge leaf is
		// already collapsed, and an upper-level metadata entry has
		// nothing resident at all.
		chunks := a.chunks(core)
		start := chunkAt(chunks, arch.Vaddr(a.scanHand.Load()))
		hand, scanned := arch.Vaddr(0), 0
		for i := 0; i < len(chunks) && scanned < cfg.ScanSpans; i++ {
			ch := chunks[(start+i)%len(chunks)]
			hand = ch.base + arch.Vaddr(ch.span)
			if ch.table && ch.pages == arch.PTEntries {
				d.scanSpan(core, a, ch.base)
				scanned++
			}
		}
		a.scanHand.Store(uint64(hand))
		return false
	})
}

// scanSpan examines one span's residency and A bits under a
// transaction, clears the A bits so the next quantum measures fresh
// access, and keeps what it saw in the heat of the leaf table mapping
// the span (pt.PageState.Young/Cold), written under that table's lock:
// the scanner remembers nothing beside the page table, and a span's
// evidence dies with its table. Scans can outpace the workload (several
// quanta may fire between two touch phases), so a cold scan does not
// reset the evidence of heat — young sightings accumulate, and only
// coldResetScans cold scans in a row clear them. A span seen young
// promoteScans times is collapsed; a partial, shared/COW or file-backed
// span's heat is cleared.
func (d *Daemon) scanSpan(core int, a *AddrSpace, base arch.Vaddr) {
	span := arch.Vaddr(arch.SpanBytes(2))
	c, err := a.Lock(core, base, base+span)
	if err != nil {
		return
	}
	var resident, young uint64
	eligible := true
	_ = c.IterateMapped(base, base+span, func(r Run) error {
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) != 0 || r.Origin.Allocated() {
			eligible = false
		}
		resident += r.Pages
		if r.Accessed {
			young += r.Pages
		}
		return nil
	})
	// Clear the A bits and force the span's translations out of every
	// TLB: without the shootdown, cores keep hitting cached entries,
	// never re-walk, and the bits would stay clear forever — every span
	// would look cold on the second scan.
	_ = c.ClearAccessed(base, base+span)
	c.needSync = true
	promote := false
	// Only a leaf table has heat: a huge leaf is collapsed already.
	if e, err := c.entry(base, 1, false); err == nil && e.level == 1 {
		st := a.state(e.pfn)
		switch {
		case !eligible || resident != arch.PTEntries:
			st.Young, st.Cold = 0, 0
		case young*2 >= resident: // young majority: the span is hot
			st.Young, st.Cold = st.Young+1, 0
		case st.Cold+1 >= coldResetScans:
			st.Young, st.Cold = 0, 0
		default:
			st.Cold++
		}
		if promote = st.Young >= promoteScans; promote {
			st.Young, st.Cold = 0, 0
		}
	}
	c.Close()
	d.spansScanned.Add(1)
	if promote && a.CollapseHuge(core, base) == nil {
		d.promotions.Add(1)
	}
}

// HugeBytes reports how many bytes of the space are currently mapped by
// huge (level >= 2) leaves — the sustained-coverage metric of the THP
// benchmarks.
func (a *AddrSpace) HugeBytes(core int) uint64 {
	var total uint64
	for _, ch := range a.chunks(core) {
		if ch.huge {
			total += ch.span
		}
	}
	return total
}
