package core

// CompactionManager is the background memory-defragmentation and THP
// pipeline: a khugepaged-style scanner that promotes hot, fully
// resident 2-MiB spans to huge mappings, a kcompactd analogue that
// compacts a zone when its order-9 fragmentation index crosses a
// threshold, the direct-compaction hook the allocator's order>0 slow
// path falls back to before declaring failure, and (optionally) a
// NUMA-balancing pass that migrates pages toward their sustained remote
// accessors. Like the ReclaimManager it has no thread of its own: all
// work runs from the machine's timer-tick hook, on a core that holds no
// PT-page locks at tick time.

import (
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
)

// CompactConfig tunes the pipeline. Zero values select defaults;
// negative values disable the corresponding pass.
type CompactConfig struct {
	// ScanSpans is the khugepaged quantum: 2-MiB spans examined per
	// tick (default 8, <0 disables the scanner).
	ScanSpans int
	// PromoteScans is how many consecutive quanta a span must be seen
	// fully resident and young before it is collapsed (default 2).
	PromoteScans int
	// FragThreshold triggers background compaction when the node's
	// order-9 fragmentation index exceeds it (default 0.75, <0
	// disables background compaction; direct compaction still runs).
	FragThreshold float64
	// CompactPages caps the frames migrated per compaction pass
	// (default 256).
	CompactPages int
	// NumaStreak is the remote-access streak after which a page is
	// migrated to its accessor's node (0 disables NUMA balancing).
	NumaStreak uint64
	// NumaScan is the number of frames probed per tick by the NUMA
	// balancer (default 256).
	NumaScan int
}

func (c *CompactConfig) fill() {
	if c.ScanSpans == 0 {
		c.ScanSpans = 8
	}
	if c.PromoteScans <= 0 {
		c.PromoteScans = 2
	}
	if c.FragThreshold == 0 {
		c.FragThreshold = 0.75
	}
	if c.CompactPages <= 0 {
		c.CompactPages = 256
	}
	if c.NumaScan <= 0 {
		c.NumaScan = 256
	}
}

// spanKey identifies one 2-MiB span of one space in the scanner's
// telemetry map.
type spanKey struct {
	a    *AddrSpace
	base arch.Vaddr
}

// spanStat is the scanner's per-span memory. Scans can outpace the
// workload (several quanta may fire between two touch phases), so a
// cold scan does not reset the evidence of heat — young sightings
// accumulate, and only a sustained run of cold scans clears them.
type spanStat struct {
	young int // scans that saw a young majority since the last decay
	cold  int // consecutive cold scans
}

// coldResetScans is how many consecutive cold scans erase a span's
// accumulated young sightings.
const coldResetScans = 8

// CompactionStats is a snapshot of the pipeline's counters.
type CompactionStats struct {
	SpansScanned  uint64 // khugepaged span scans
	Promotions    uint64 // successful CollapseHuge calls
	DirectRuns    uint64 // direct-compaction passes run for the allocator
	DirectRefused uint64 // direct compaction refused (caller inside a txn)
	BgRuns        uint64 // background compaction passes that moved pages
	NumaMoves     uint64 // NUMA-balancing migrations attempted
}

// CompactionManager drives compaction, collapse scanning and NUMA
// balancing for one machine. Create with AttachCompaction; register
// each space that should be scanned with Register.
type CompactionManager struct {
	m   *cpusim.Machine
	cfg CompactConfig

	// busy single-flights the whole tick body: CollapseHuge and the
	// compaction hook both re-enter OpTick, and concurrent cores need
	// not stack scans.
	busy atomic.Bool
	// compacting[node] single-flights compaction per zone, shared by
	// the direct and background paths.
	compacting []atomic.Bool

	mu     sync.Mutex
	spaces []*AddrSpace
	hand   int                       // round-robin over spaces
	cursor map[*AddrSpace]arch.Vaddr // per-space VA clock hand
	spans  map[spanKey]*spanStat     // scanner telemetry

	numaHand atomic.Int64

	spansScanned  atomic.Uint64
	promotions    atomic.Uint64
	directRuns    atomic.Uint64
	directRefused atomic.Uint64
	bgRuns        atomic.Uint64
	numaMoves     atomic.Uint64
}

// AttachCompaction builds the pipeline on m: it installs the core-layer
// migration hook, registers the direct-compaction callback with the
// physical allocator, and wires the tick either into rm's tick chain
// (when a ReclaimManager is already attached — the machine has a single
// tick-hook slot) or directly as the machine's tick hook. Pass rm=nil
// only when no reclaim manager is (or will be) attached.
func AttachCompaction(m *cpusim.Machine, rm *ReclaimManager, cfg CompactConfig) *CompactionManager {
	cfg.fill()
	cm := &CompactionManager{
		m:          m,
		cfg:        cfg,
		compacting: make([]atomic.Bool, m.Phys.Nodes()),
		cursor:     make(map[*AddrSpace]arch.Vaddr),
		spans:      make(map[spanKey]*spanStat),
	}
	InstallMigrator(m)
	m.Phys.SetCompactHook(cm.directCompact)
	if cfg.NumaStreak > 0 {
		m.Phys.SetNumaTracking(true)
	}
	if rm != nil {
		rm.compact.Store(cm)
	} else {
		m.SetTickHook(cm.tick)
	}
	return cm
}

// Register adds a space to the collapse scanner's clock.
func (cm *CompactionManager) Register(a *AddrSpace) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for _, e := range cm.spaces {
		if e == a {
			return
		}
	}
	cm.spaces = append(cm.spaces, a)
	a.compaction.Store(cm)
}

// Unregister removes a space; called by Destroy before teardown.
func (cm *CompactionManager) Unregister(a *AddrSpace) {
	cm.mu.Lock()
	kept := cm.spaces[:0]
	for _, e := range cm.spaces {
		if e != a {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(cm.spaces); i++ {
		cm.spaces[i] = nil
	}
	cm.spaces = kept
	delete(cm.cursor, a)
	for k := range cm.spans {
		if k.a == a {
			delete(cm.spans, k)
		}
	}
	cm.mu.Unlock()
	a.compaction.CompareAndSwap(cm, nil)
}

// Stats snapshots the pipeline counters.
func (cm *CompactionManager) Stats() CompactionStats {
	return CompactionStats{
		SpansScanned:  cm.spansScanned.Load(),
		Promotions:    cm.promotions.Load(),
		DirectRuns:    cm.directRuns.Load(),
		DirectRefused: cm.directRefused.Load(),
		BgRuns:        cm.bgRuns.Load(),
		NumaMoves:     cm.numaMoves.Load(),
	}
}

// tick runs one pipeline quantum. Invoked from the machine tick hook
// (or chained from the reclaim manager's). The InTx guard is defensive:
// ticks fire at operation entry, before any PT lock is taken, but a
// tick arriving inside a transaction must not lock or barrier.
func (cm *CompactionManager) tick(core int) {
	if cm.m.InTx(core) {
		return
	}
	if !cm.busy.CompareAndSwap(false, true) {
		return
	}
	defer cm.busy.Store(false)
	cm.scanQuantum(core)
	cm.backgroundCompact(core)
	cm.numaBalance(core)
}

// directCompact is the allocator's order>0 slow-path hook: compact the
// requesting node's zone so the failed high-order allocation can be
// retried. Refused when the allocating goroutine is inside a
// transaction — migration takes PT locks and an RCU barrier, and both
// deadlock under a held PT lock (callers that need high-order memory,
// like CollapseHuge, allocate before locking for exactly this reason).
func (cm *CompactionManager) directCompact(core, node, order int) bool {
	if cm.m.InTx(core) {
		cm.directRefused.Add(1)
		return false
	}
	if !cm.compacting[node].CompareAndSwap(false, true) {
		return false
	}
	defer cm.compacting[node].Store(false)
	cm.directRuns.Add(1)
	moved := cm.m.Phys.CompactZone(core, node, cm.cfg.CompactPages)
	// The vacated frames sit in the RCU monitor; like the reclaim hook,
	// drive this core's tick so they reach the buddy before the caller
	// retries.
	cm.m.Reap(core)
	return moved > 0
}

// backgroundCompact is the kcompactd analogue: when the ticking core's
// node is too fragmented to serve order-9 requests, move movable pages
// out of the zone's low region so free blocks re-coalesce — before an
// allocation has to pay for it.
func (cm *CompactionManager) backgroundCompact(core int) {
	if cm.cfg.FragThreshold < 0 {
		return
	}
	node := cm.m.NodeOf(core)
	if cm.m.Phys.FragIndex(node, arch.IndexBits) < cm.cfg.FragThreshold {
		return
	}
	if !cm.compacting[node].CompareAndSwap(false, true) {
		return
	}
	defer cm.compacting[node].Store(false)
	if cm.m.Phys.CompactZone(core, node, cm.cfg.CompactPages) > 0 {
		cm.bgRuns.Add(1)
	}
}

// numaBalance probes a window of the frame table for pages with a
// sustained remote-access streak and migrates each to its accessor's
// node (the NUMA-balancing satellite of §4.5's policy layer).
func (cm *CompactionManager) numaBalance(core int) {
	if cm.cfg.NumaStreak == 0 || cm.m.Phys.Nodes() < 2 {
		return
	}
	phys := cm.m.Phys
	n := phys.NFrames()
	if n == 0 {
		return
	}
	start := int(cm.numaHand.Add(int64(cm.cfg.NumaScan))) - cm.cfg.NumaScan
	for i := 0; i < cm.cfg.NumaScan; i++ {
		pfn := arch.PFN((start + i) % n)
		if node, ok := phys.NumaCandidate(pfn, cm.cfg.NumaStreak); ok {
			cm.numaMoves.Add(1)
			_ = phys.MigrateFrameTo(core, pfn, node)
		}
	}
}

// scanQuantum is one khugepaged step: pick the next registered space
// and scan the next ScanSpans 2-MiB spans of its allocated chunks.
func (cm *CompactionManager) scanQuantum(core int) {
	if cm.cfg.ScanSpans < 0 {
		return
	}
	a := cm.nextSpace()
	if a == nil || !a.migrateEnter() {
		return
	}
	defer a.migrateExit()
	// Same skip rule as the reclaim sweep: never lock a space the
	// calling core already holds transactions in.
	if a.oomKilled.Load() || a.holdsTx(core) {
		return
	}
	// Candidates are fully allocated level-1 tables: a partly allocated
	// table cannot be fully resident, a huge leaf is already collapsed,
	// and an upper-level metadata entry has nothing resident at all.
	chunks := a.chunks(core)
	cm.mu.Lock()
	start := chunkAt(chunks, cm.cursor[a])
	cm.mu.Unlock()
	hand, scanned := arch.Vaddr(0), 0
	for i := 0; i < len(chunks) && scanned < cm.cfg.ScanSpans; i++ {
		ch := chunks[(start+i)%len(chunks)]
		hand = ch.base + arch.Vaddr(ch.span)
		if ch.table && ch.pages == arch.PTEntries {
			cm.scanSpan(core, a, ch.base)
			scanned++
		}
	}
	cm.mu.Lock()
	cm.cursor[a] = hand
	cm.mu.Unlock()
}

// nextSpace rotates the scanner's clock hand over registered spaces.
func (cm *CompactionManager) nextSpace() *AddrSpace {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if len(cm.spaces) == 0 {
		return nil
	}
	cm.hand = (cm.hand + 1) % len(cm.spaces)
	return cm.spaces[cm.hand]
}

// scanSpan examines one span's residency and A bits under a
// transaction, clears the A bits so the next quantum measures fresh
// access, and collapses the span once it has been fully resident and
// young for PromoteScans consecutive quanta. Cold, partial, shared/COW
// and already-huge spans only update (or drop) telemetry.
func (cm *CompactionManager) scanSpan(core int, a *AddrSpace, base arch.Vaddr) {
	span := arch.Vaddr(arch.SpanBytes(2))
	key := spanKey{a: a, base: base}
	c, err := a.Lock(core, base, base+span)
	if err != nil {
		return
	}
	var resident, young uint64
	huge, eligible := false, true
	_ = c.IterateMapped(base, base+span, func(r Run) error {
		if r.Status.HugeLevel() >= 2 {
			huge = true
			return nil
		}
		if r.Status.Perm&(arch.PermShared|arch.PermCOW) != 0 {
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
	c.Close()
	cm.spansScanned.Add(1)

	full := resident == uint64(arch.SpanBytes(2)/arch.PageSize)
	if huge || !eligible || !full {
		cm.dropStat(key)
		return
	}
	st := cm.stat(key)
	cm.mu.Lock()
	if young*2 >= resident { // young majority: the span is hot
		st.young++
		st.cold = 0
	} else {
		st.cold++
		if st.cold >= coldResetScans {
			st.young, st.cold = 0, 0
		}
	}
	promote := st.young >= cm.cfg.PromoteScans
	cm.mu.Unlock()
	if !promote {
		return
	}
	cm.dropStat(key)
	if a.CollapseHuge(core, base) == nil {
		cm.promotions.Add(1)
	}
}

func (cm *CompactionManager) stat(key spanKey) *spanStat {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	st := cm.spans[key]
	if st == nil {
		st = &spanStat{}
		cm.spans[key] = st
	}
	return st
}

func (cm *CompactionManager) dropStat(key spanKey) {
	cm.mu.Lock()
	delete(cm.spans, key)
	cm.mu.Unlock()
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
