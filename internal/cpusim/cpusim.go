// Package cpusim models the multicore machine the memory managers run
// on: a fixed set of cores (each simulated by one goroutine that carries
// its core ID), NUMA-node assignment, timer ticks that drive LATR TLB
// sweeps and RCU reclamation, and the virtual-address allocators —
// including the per-core allocator of §4.5, where each core owns a
// private share of the address space to avoid allocation contention.
package cpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/rcu"
	"cortenmm/internal/tlb"
)

// Config describes the simulated machine.
type Config struct {
	// Cores is the number of simulated CPUs.
	Cores int
	// NUMANodes partitions cores into contiguous cluster blocks of
	// nodes (NrOS replicas, physical-memory zones, cluster-IPI
	// delivery groups): core c lives on node c*NUMANodes/Cores.
	// Clamped to Cores and to Frames/2, so every node has a core and
	// two frames.
	NUMANodes int
	// Frames is the simulated physical memory size in 4-KiB frames,
	// at least 2 (frame 0 is reserved).
	Frames int
	// TLBMode selects the shootdown protocol; an unknown mode runs as
	// tlb.ModeSync.
	TLBMode tlb.Mode
	// TickEvery fires the per-core timer every N OpTick events
	// (default 64).
	TickEvery int
}

// Machine bundles the hardware substrates of one simulated system.
type Machine struct {
	Cores     int
	NUMANodes int
	Phys      *mem.PhysMem
	TLB       *tlb.Machine
	RCU       *rcu.Domain

	// nodeOf maps each core to its NUMA node (contiguous cluster
	// blocks); Phys and TLB share this one slice.
	nodeOf []int

	tickEvery int
	ticks     []tickState
	asids     asidState
}

// tickState is one core's line of machine state: the event clock OpTick
// advances and the transaction word the bracket around every page-table
// transaction writes next — one line, touched twice per operation, by
// its own core.
type tickState struct {
	n uint64
	// tx is the core's transaction word, space<<txDepthBits | depth: how
	// many page-table transactions the core's goroutine is inside, and
	// which address space the outermost one belongs to. It is written
	// once on the way in (EnterTx) and once on the way out (ExitTx) and
	// answers three rare readers: the entrant itself (depth rose from
	// zero, so the space's cached cursor is free), the compactor (InTx)
	// and the reclaim sweeps (HoldsTx).
	tx atomic.Uint64
	_  [48]byte
}

const (
	txDepthBits = 16
	txDepthMask = 1<<txDepthBits - 1
)

// EnterTx notes that core's goroutine entered a page-table transaction
// of the address space identified by space, and reports whether it is
// the outermost one (the depth rose from zero). One CAS when nothing
// else uses the core ID.
func (m *Machine) EnterTx(core int, space uint64) (outermost bool) {
	w := &m.ticks[core].tx
	for {
		old := w.Load()
		next := old + 1
		if old&txDepthMask == 0 {
			next = space<<txDepthBits | 1
		}
		if w.CompareAndSwap(old, next) {
			return old&txDepthMask == 0
		}
	}
}

// ExitTx notes that core's goroutine left a page-table transaction.
func (m *Machine) ExitTx(core int) { m.ticks[core].tx.Add(^uint64(0)) }

// InTx reports whether core's goroutine is inside a transaction in any
// address space of the machine. Direct compaction consults it: a
// migration from within a transaction would lock other spaces out of
// order, so the compactor refuses on a core that is mid-transaction.
func (m *Machine) InTx(core int) bool { return m.ticks[core].tx.Load()&txDepthMask != 0 }

// HoldsTx reports whether core's goroutine may hold page-table locks in
// the given space: it is inside that space's transaction, or inside
// nested ones (fork), of which the word names only the outermost — those
// are answered conservatively. Sweeps that lock PT pages consult it to
// skip spaces the calling goroutine would self-deadlock in (the locks
// are not reentrant).
func (m *Machine) HoldsTx(core int, space uint64) bool {
	w := m.ticks[core].tx.Load()
	depth := w & txDepthMask
	return depth > 0 && (w>>txDepthBits == space || depth > 1)
}

// New builds a machine. It is the one place that decides the machine's
// shape: zero config fields get sensible defaults (4 cores, 1 node,
// 64 Ki frames = 256 MiB, sync TLB shootdown), out-of-range ones are
// clamped, and the core→node map it builds is the only one mem and tlb
// see.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.NUMANodes <= 0 {
		cfg.NUMANodes = 1
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 1 << 16
	}
	cfg.Frames = max(cfg.Frames, 2) // frame 0 is reserved
	// A node needs a core, and two frames: mem shards its zones so.
	cfg.NUMANodes = max(min(cfg.NUMANodes, cfg.Cores, cfg.Frames/2), 1)
	if cfg.TLBMode > tlb.ModeLATR {
		cfg.TLBMode = tlb.ModeSync
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 64
	}
	// Contiguous cluster-block core→node assignment, like
	// socket-ordered core enumeration on real multi-socket machines;
	// the blocks differ by at most one core, so every node has one.
	nodeOf := make([]int, cfg.Cores)
	for c := range nodeOf {
		nodeOf[c] = c * cfg.NUMANodes / cfg.Cores
	}
	m := &Machine{
		Cores:     cfg.Cores,
		NUMANodes: cfg.NUMANodes,
		Phys:      mem.NewPhysMemNUMA(cfg.Frames, nodeOf),
		TLB:       tlb.NewMachineNUMA(cfg.TLBMode, nodeOf),
		RCU:       rcu.NewDomain(cfg.Cores),
		nodeOf:    nodeOf,
		tickEvery: cfg.TickEvery,
		ticks:     make([]tickState, cfg.Cores),
	}
	m.asids.gen = 1
	m.asids.fresh = 1 // slot 0 is reserved, like arm64's init_mm ASID
	return m
}

// NodeOf returns the NUMA node of a core.
func (m *Machine) NodeOf(core int) int { return m.nodeOf[core] }

// HWASIDs is the hardware address-space-identifier space: TLB tags carry
// an 8-bit ASID, as on pre-ASID16 arm64 parts, so at most HWASIDs-1
// spaces can be live at once (slot 0 is reserved).
const HWASIDs = 256

// asidState is the generation-recycling ASID allocator (modelled on
// arm64's check_and_switch_context rollover). Slots are handed out from
// a never-used pool first; freed slots are quarantined on the current
// generation's freed list and become reusable only after the next
// rollover, which flushes every translation on every core before any
// quarantined slot is reissued. That ordering is the allocator's one
// load-bearing invariant — recycle-implies-flushed: a recycled ASID can
// never hit a dead space's translations, even if the dead space's
// teardown issued no TLB invalidation at all. Teardown therefore skips
// the all-core shootdown entirely (see the space Destroy
// implementations), which is what keeps thousands of short-lived
// spaces from poisoning the shared epoch cells.
type asidState struct {
	mu        sync.Mutex
	gen       uint32 // current generation, bumped at each rollover
	fresh     uint32 // next never-handed-out slot
	live      [HWASIDs]bool
	owners    [HWASIDs]any // what each live slot names, once published
	nLive     int
	freed     []uint16 // freed this generation: reuse quarantined until rollover
	avail     []uint16 // freed before the last rollover: flushed, reusable
	rollovers uint64
}

// take pops a reusable slot: the flushed avail pool first (bounding how
// long dead translations linger), then the never-used pool.
func (s *asidState) take() (uint16, bool) {
	if n := len(s.avail); n > 0 {
		slot := s.avail[n-1]
		s.avail = s.avail[:n-1]
		return slot, true
	}
	if s.fresh < HWASIDs {
		slot := uint16(s.fresh)
		s.fresh++
		return slot, true
	}
	return 0, false
}

// AllocASID hands out an address-space identifier: a hardware slot in
// [1, HWASIDs). On exhaustion it rolls the generation: flush every core
// of every translation, then — and only then — recirculate the slots
// freed since the previous rollover.
// Panics if more than HWASIDs-1 spaces are live at once (the simulated
// hardware has nowhere to put them; real kernels block the allocating
// task instead).
func (m *Machine) AllocASID() tlb.ASID {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.take()
	if !ok {
		if len(s.freed) == 0 {
			panic(fmt.Sprintf("cpusim: ASID space exhausted: %d live address spaces >= %d hardware slots", s.nLive, HWASIDs-1))
		}
		// Rollover. The flush-all must complete before any quarantined
		// slot is reissued: after it, no core's TLB holds any
		// translation, so whatever a dead predecessor left behind under
		// a recycled slot is gone. Callers holding s.mu keep allocation
		// and the flush atomic with respect to other allocators.
		m.TLB.FlushAllASIDs()
		s.gen++
		s.rollovers++
		s.avail = append(s.avail[:0], s.freed...)
		s.freed = s.freed[:0]
		slot, _ = s.take()
	}
	s.live[slot] = true
	s.nLive++
	return tlb.ASID(slot)
}

// FreeASID returns an identifier after its space's teardown. The slot is
// quarantined until the next generation rollover; it is never reissued
// before a machine-wide flush. Panics on a double free or an identifier
// this allocator never issued.
func (m *Machine) FreeASID(asid tlb.ASID) {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := uint32(asid)
	if slot == 0 || slot >= HWASIDs || !s.live[slot] {
		panic(fmt.Sprintf("cpusim: FreeASID(%d): not a live ASID", asid))
	}
	s.live[slot] = false
	s.owners[slot] = nil
	s.nLive--
	s.freed = append(s.freed, uint16(slot))
}

// Publish names owner as the holder of a live identifier, which makes
// it visible to Owners until FreeASID. The table is the machine's one
// list of live address spaces: whoever publishes must have written
// every field an Owners reader uses.
func (m *Machine) Publish(asid tlb.ASID, owner any) {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	s.owners[asid] = owner
}

// Owners returns the published owners of live identifiers in slot order,
// starting at slot from and wrapping.
func (m *Machine) Owners(from int) []any {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []any
	for i := range HWASIDs {
		if o := s.owners[(from+i)%HWASIDs]; o != nil {
			out = append(out, o)
		}
	}
	return out
}

// ASIDStats is a snapshot of allocator activity.
type ASIDStats struct {
	Live       int    // currently live identifiers
	Generation uint32 // current generation (1 + rollovers)
	Rollovers  uint64 // generation rollovers (each one machine-wide flush)
}

// ASIDStats snapshots the ASID allocator.
func (m *Machine) ASIDStats() ASIDStats {
	s := &m.asids
	s.mu.Lock()
	defer s.mu.Unlock()
	return ASIDStats{Live: s.nLive, Generation: s.gen, Rollovers: s.rollovers}
}

// Run executes fn concurrently on cores 0..n-1 and waits for all of
// them, the harness for every multithreaded workload.
func (m *Machine) Run(n int, fn func(core int)) {
	if n > m.Cores {
		panic(fmt.Sprintf("cpusim: Run(%d) exceeds %d cores", n, m.Cores))
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// OpTick advances core's event clock; every TickEvery events the core
// takes a "timer interrupt": it sweeps LATR buffers, polls RCU and runs
// the physical memory's Pressure tick (kswapd, kcompactd and khugepaged
// analogues), on this core's goroutine, which holds no page-table locks:
// OpTick is always called before a transaction begins. Workloads call
// this once per high-level operation.
func (m *Machine) OpTick(core int) {
	t := &m.ticks[core]
	t.n++
	if t.n%uint64(m.tickEvery) == 0 {
		m.Reap(core)
		if p := m.Phys.Pressure(); p != nil {
			p.Tick(core)
		}
	}
}

// Reap is the deferred-work half of a timer tick on core: apply the
// lazily queued TLB invalidations, then run the RCU callbacks that were
// queued before the sweep began. The order and the epoch bound are what
// keep a frame allocated for as long as some core can still translate
// to it: an unmap queues its invalidations before its deferred free,
// so a free old enough to run here had its invalidations in a buffer
// this sweep (or one it waited for) has just applied. A free queued
// while the sweep was running waits for the next tick.
func (m *Machine) Reap(core int) {
	e := m.RCU.Epoch()
	m.TLB.Tick(core)
	m.RCU.PollBefore(e)
}

// Quiesce drains all deferred work (pending TLB invalidations, RCU
// callbacks) — used between benchmark phases and in tests before
// checking invariants. After Quiesce returns, every invalidation queued
// before the call has been turned into epoch-cell generation bumps on
// all cores, so no lookup anywhere can return a translation a completed
// shootdown covered (the LATR staleness window is closed), and every
// callback queued before the call has run. That holds against
// concurrent OpTick sweepers too: tlb.Machine.Tick waits for a sweep
// another core has under way rather than passing its emptied buffer by.
func (m *Machine) Quiesce() {
	m.RCU.Synchronize()
	for {
		e := m.RCU.Epoch()
		for c := 0; c < m.Cores; c++ {
			m.TLB.Tick(c)
		}
		m.RCU.PollBefore(e)
		if m.RCU.Stats().Pending == 0 {
			return
		}
	}
}

// Access is the simulated MMU, the same for every kernel on the
// machine: one user access by core to va in the address space tagged
// asid, whose page table — the one this core walks, for a kernel that
// replicates it — is t. It probes the TLB, walks t on a miss or a
// permission miss and caches what the walk found, calls fault when the
// walk cannot serve the access and tries again (64 times at most), and
// hands the page's bytes to fn (nil for an access that moves none). The
// caller has passed its own gate: the space is alive and core is one of
// the machine's.
//
// Translation and the byte access sit inside one RCU read section, for
// two reasons. The walker is a lockless reader of PT pages, and whoever
// unlinks one hands it to the RCU monitor. And on hardware an access
// that has passed translation retires before the unmapping core's
// shootdown is acknowledged, so the frame cannot be recycled underneath
// it. The read section is that window: every kernel issues the
// shootdown covering a frame and only then hands the frame to the
// monitor (DeferPut, Defer), so a frame whose mapping this core could
// have observed stays allocated until fn returns. fault runs outside
// the section — it takes the kernel's locks and must not stall grace
// periods.
//
// A 4-KiB fill that moves bytes caches the frame's page beside its
// number, and a hit hands that page to fn without touching the frame's
// descriptor. The page is exactly as valid as the number: a frame's
// payload is fixed for its life, and that life ends only after the
// covering shootdown and a grace period, so every hit the TLB serves
// names a live frame and carries its current bytes. Touch fills cache
// no page, and neither do huge leaves; their hits read through DataPage.
func (m *Machine) Access(core int, asid tlb.ASID, t *pt.Tree, va arch.Vaddr, acc pt.Access,
	fault func(core int, va arch.Vaddr, acc pt.Access) error, fn func(page []byte, off uint64)) error {
	if va >= arch.MaxVaddr {
		return mm.ErrSegv
	}
	page := arch.PageAlignDown(va)
	for tries := 0; tries < 64; tries++ {
		m.RCU.ReadLock(core)
		tr, ok := m.TLB.Lookup(core, asid, page)
		if !ok || !tr.Perm.Contains(acc.Needs()) {
			// The fill opens before the walk: a shootdown that lands in
			// between must invalidate what the walk is about to cache.
			fill := m.TLB.FillBegin(core, asid)
			if tr, ok = t.WalkAccess(va, acc); ok {
				if fn != nil && tr.Level == 1 {
					tr.Page = (*[arch.PageSize]byte)(m.Phys.DataPage(tr.PFN))
				}
				// tr carries the leaf level from the walk; huge leaves land
				// in the TLB's span-indexed array so every page of the span
				// hits from this one fill.
				m.TLB.InsertAt(core, asid, page, tr, fill)
				if tr.Level == 1 {
					// A TLB fill is the NUMA balancer's access sample.
					m.Phys.NoteAccess(core, tr.PFN)
				}
			}
		} else if mmdebug {
			m.checkHit(core, va, tr)
		}
		if ok {
			if fn != nil {
				off := uint64(va & (arch.PageSize - 1))
				if tr.Page != nil {
					fn(tr.Page[:], off)
				} else {
					fn(m.Phys.DataPage(tr.PFN), off)
				}
			}
			m.RCU.ReadUnlock(core)
			return nil
		}
		m.RCU.ReadUnlock(core)
		if err := fault(core, va, acc); err != nil {
			return err
		}
	}
	return fmt.Errorf("cpusim: translation livelock at %#x", va)
}

// checkHit is the -tags mmdebug assertion on a TLB hit: the frame it
// names is allocated, and a cached page is that frame's payload. It
// compares against the frame, not a fresh walk — between a PTE clear and
// its shootdown, and under LATR until the sweep, a hit may legally
// disagree with the page table, but never with the allocator.
func (m *Machine) checkHit(core int, va arch.Vaddr, tr pt.Translation) {
	if m.Phys.Desc(m.Phys.HeadOf(tr.PFN)).Ref.Load() <= 0 {
		panic(fmt.Sprintf("cpusim: core %d hit %#x -> frame %#x, which is free", core, va, tr.PFN))
	}
	if tr.Page != nil && tr.Page != (*[arch.PageSize]byte)(m.Phys.DataPage(tr.PFN)) {
		panic(fmt.Sprintf("cpusim: core %d hit %#x -> frame %#x with a cached page that is not the frame's payload", core, va, tr.PFN))
	}
}

// ReapBacklog is the number of waiting RCU callbacks at which a hand-off
// to the monitor runs the core's deferred work itself instead of leaving
// it to the next timer tick. A bulk teardown queues thousands of frames
// per call; a core that ticks every 64 operations would otherwise let a
// node's worth of frames sit in the monitor while its allocations spill
// off-node.
const ReapBacklog = 32

// DeferPut hands runs of unmapped frames to the RCU monitor on behalf
// of core. The caller has already issued the shootdown that covers them.
func (m *Machine) DeferPut(core int, runs []rcu.FrameRun) {
	if m.RCU.DeferPut(m.Phys, core, runs) >= ReapBacklog {
		m.Reap(core)
	}
}

// Defer is DeferPut for any other release — an unlinked PT page, a
// baseline's frame list. Safe with PT-page locks held: a sweep or a
// callback never takes one.
func (m *Machine) Defer(core int, fn func()) {
	if m.RCU.Defer(fn) >= ReapBacklog {
		m.Reap(core)
	}
}

// DeferTeardown is the one teardown of a dead address space's page
// tables, an unmap of everything. Its caller has closed the space's
// gate, so no new access starts. What the space holds ends now, as an
// unmap's does: every status word's hold is given back and the head
// frame of every leaf unmapped, so a parent the space was forked from
// is again its pages' only mapper. What a walker reads — the PT pages and
// the frames — an access that passed the gate may still be using inside
// Access, so the monitor frees those after a grace period: the trees,
// and the leaves' frames with frames (references the space held beside
// its PTEs) in one PutList. No shootdown covers them: the caller frees
// the space's ASID, and a freed slot is flushed on every core before it
// is reissued.
func (m *Machine) DeferTeardown(core int, frames []arch.PFN, trees ...*pt.Tree) {
	for _, t := range trees {
		t.Drop(func(pte uint64, level int) {
			head := m.Phys.HeadOf(t.ISA.PFNOf(pte))
			m.Phys.Desc(head).Unmap()
			frames = append(frames, head)
		})
	}
	m.Defer(core, func() {
		for _, t := range trees {
			t.Destroy(core, nil)
		}
		m.Phys.PutList(core, frames)
	})
}

// CheckClean is the epilogue of every harness, run after the last
// address space was destroyed: drain the deferred work, then require
// that physical memory audits clean and that no page-table or anonymous
// frame, no swap block and no file's object id outlived the teardown.
func (m *Machine) CheckClean() error {
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		return fmt.Errorf("cpusim: after teardown, %s", rep.String())
	}
	if st := m.Phys.Stats(); st.PageTableBytes != 0 || st.AnonBytes != 0 {
		return fmt.Errorf("cpusim: %d page-table and %d anonymous bytes left after teardown", st.PageTableBytes, st.AnonBytes)
	}
	if n := m.Phys.Swap().InUse(); n != 0 {
		return fmt.Errorf("cpusim: %d swap blocks left after teardown", n)
	}
	if n := m.Phys.FilesInUse(); n != 0 {
		return fmt.Errorf("cpusim: %d files still holding an object id after teardown", n)
	}
	return nil
}
