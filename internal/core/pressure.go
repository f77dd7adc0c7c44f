package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// ErrOOMKilled is returned by allocating syscalls on an address space
// the OOM killer tore down. Releasing operations (Munmap, Destroy)
// still work so the caller can clean up.
var ErrOOMKilled = errors.New("core: address space torn down by OOM killer")

// ErrDestroyed is mm.ErrDestroyed, returned by every call on an address
// space after Destroy.
var ErrDestroyed = mm.ErrDestroyed

// ReclaimConfig tunes a ReclaimManager.
type ReclaimConfig struct {
	// LowWater is the free-frame count below which background reclaim
	// kicks in (default: 1/8 of physical frames). Background sweeps aim
	// to restore free frames to twice this mark.
	LowWater uint64
	// MinWater is the free-frame floor: the allocator fails hard only
	// when direct reclaim cannot lift free frames above it (default:
	// 1/64 of physical frames).
	MinWater uint64
	// OOMKill enables the last-resort teardown: when direct reclaim
	// makes no progress at all, the space with the largest virtual
	// footprint is killed so one hog cannot wedge every other space.
	OOMKill bool
}

// ReclaimManager wires the core layer's reclaim machinery into a
// machine's physical allocator: it is the mem.ReclaimHook (direct
// reclaim on the allocating goroutine), the kswapd analogue (background
// sweeps driven by simulated timer ticks once a zone's free frames dip
// below its low watermark), and the OOM killer of last resort. Reclaim
// is a clock sweep: a per-node hand rotates over the registered address
// spaces, and within each space over its allocated chunks, swapping
// cold private anonymous pages out through the space's swap device
// (ReclaimRange). On a NUMA machine the manager is node-aware: each
// node runs its own tick-driven kswapd against its own zone's
// watermarks, and direct reclaim first sweeps only frames on the
// starved placement node, stealing from other nodes' frames only when
// the node-filtered pass comes up short.
type ReclaimManager struct {
	m   *cpusim.Machine
	cfg ReclaimConfig

	mu     sync.Mutex // guards spaces and the per-node clock hands
	spaces []*AddrSpace
	clock  []int // one hand per node (index -1 callers use their home hand)

	// direct serializes direct reclaimers. The allocation slow path may
	// run while the allocating goroutine holds PT-page locks; keeping at
	// most one such reclaimer (TryLock, losers give up) means no cycle
	// of lock-holding reclaimers can form.
	direct sync.Mutex
	// sweeping guards against sweep reentry, one flag per node:
	// ReclaimRange drives OpTick, whose tick hook must not start a
	// nested sweep. Reentry is always same-goroutine (hence same core,
	// hence same node), so a per-node flag suffices — and it doubles as
	// the one-kswapd-per-node limit, letting different nodes' sweeps
	// run concurrently like Linux's per-node kswapd threads.
	sweeping []atomic.Bool
	// kicked[n] is set by the allocator when node n's zone drops below
	// its low watermark and consumed by node n's next timer tick.
	kicked []atomic.Bool
	// compact chains a CompactionManager's tick off this manager's:
	// the machine has one tick-hook slot, and reclaim owns it once
	// attached (see AttachCompaction).
	compact atomic.Pointer[CompactionManager]

	directRounds atomic.Uint64
	bgSweeps     atomic.Uint64
	reclaimed    atomic.Uint64
	stolen       atomic.Uint64
	oomKills     atomic.Uint64

	// Writeback-queue telemetry, fed by the sweeps' per-sweep aio
	// queues (see evict).
	swapQueued    atomic.Uint64
	swapCompleted atomic.Uint64
	swapFailed    atomic.Uint64
}

// ReclaimStats is a snapshot of manager activity.
type ReclaimStats struct {
	DirectRounds uint64 // direct-reclaim invocations from the slow path
	BgSweeps     uint64 // background (tick-driven) sweeps
	Reclaimed    uint64 // pages swapped out by the manager
	// Stolen counts pages reclaimed in cross-node passes — direct
	// reclaim that had to look beyond the starved node's own frames.
	Stolen   uint64
	OOMKills uint64 // address spaces torn down
	// Swap-writeback queue activity: writebacks submitted to (or refused
	// by) the async io queue, completions that succeeded, and failures
	// (refused submissions plus failed completions).
	SwapQueued    uint64
	SwapCompleted uint64
	SwapFailed    uint64
}

// Stats snapshots the manager's counters.
func (rm *ReclaimManager) Stats() ReclaimStats {
	return ReclaimStats{
		DirectRounds: rm.directRounds.Load(),
		BgSweeps:     rm.bgSweeps.Load(),
		Reclaimed:    rm.reclaimed.Load(),
		Stolen:       rm.stolen.Load(),
		OOMKills:     rm.oomKills.Load(),

		SwapQueued:    rm.swapQueued.Load(),
		SwapCompleted: rm.swapCompleted.Load(),
		SwapFailed:    rm.swapFailed.Load(),
	}
}

// AttachReclaim builds a ReclaimManager and installs it on the machine:
// watermarks and the direct-reclaim hook on the physical allocator, the
// pressure kick, and the background sweeper on the timer tick. Address
// spaces opt in with Register.
func AttachReclaim(m *cpusim.Machine, cfg ReclaimConfig) *ReclaimManager {
	total := uint64(m.Phys.NFrames())
	if cfg.LowWater == 0 {
		cfg.LowWater = max(total/8, 1)
	}
	if cfg.MinWater == 0 {
		cfg.MinWater = max(total/64, 1)
	}
	nodes := m.Phys.Nodes()
	rm := &ReclaimManager{
		m:        m,
		cfg:      cfg,
		clock:    make([]int, nodes),
		sweeping: make([]atomic.Bool, nodes),
		kicked:   make([]atomic.Bool, nodes),
	}
	m.Phys.SetWatermarks(cfg.LowWater, cfg.MinWater)
	m.Phys.SetReclaimHook(rm.hook)
	m.Phys.SetPressureKick(func(node int) { rm.kicked[node].Store(true) })
	m.SetTickHook(rm.tick)
	return rm
}

// Register adds a to the reclaim clock and enables its syscall-level
// OOM retry path. The space should have a swap device; without one it
// is skipped by sweeps.
func (rm *ReclaimManager) Register(a *AddrSpace) {
	rm.mu.Lock()
	rm.spaces = append(rm.spaces, a)
	rm.mu.Unlock()
	a.reclaim = rm
}

// Registered reports how many spaces are on the reclaim clock.
func (rm *ReclaimManager) Registered() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return len(rm.spaces)
}

// Unregister removes a from the reclaim clock.
func (rm *ReclaimManager) Unregister(a *AddrSpace) {
	rm.mu.Lock()
	for i, s := range rm.spaces {
		if s == a {
			rm.spaces = append(rm.spaces[:i], rm.spaces[i+1:]...)
			break
		}
	}
	rm.mu.Unlock()
	a.reclaim = nil
}

// snapshot returns the registered spaces rotated so node's clock hand's
// current position comes first, and advances that hand. Each node keeps
// its own hand so concurrent per-node sweeps don't chase each other
// onto the same space.
func (rm *ReclaimManager) snapshot(node int) []*AddrSpace {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	n := len(rm.spaces)
	if n == 0 {
		return nil
	}
	out := make([]*AddrSpace, 0, n)
	start := rm.clock[node] % n
	for i := 0; i < n; i++ {
		out = append(out, rm.spaces[(start+i)%n])
	}
	rm.clock[node] = (start + 1) % n
	return out
}

// hook is the mem.ReclaimHook: direct reclaim on the allocating
// goroutine, which may be inside a page-table transaction. At most one
// lock-holding reclaimer runs at a time (TryLock); sweep skips any
// space the calling core has open transactions in, so the reclaimer
// never re-locks a tree it already holds locks in.
// node is the allocation's starved placement node: the node-filtered
// passes free frames where the allocator actually needs them.
func (rm *ReclaimManager) hook(core, node, target int) int {
	if !rm.direct.TryLock() {
		return 0
	}
	return rm.directRound(core, node, target)
}

// directRound is one direct-reclaim round, entered holding rm.direct
// and releasing it. It ends by driving the calling core's deferred
// machinery — a TLB tick and an RCU poll, the "backoff via simulated
// ticks" — so frames freed by the sweep actually reach the allocator
// before the caller retries.
func (rm *ReclaimManager) directRound(core, node, target int) int {
	defer rm.direct.Unlock()
	rm.directRounds.Add(1)
	n := rm.doubleSweep(core, node, target)
	rm.m.Reap(core)
	if n == 0 && rm.cfg.OOMKill {
		n = rm.oomKill(core)
	}
	return n
}

// doubleSweep runs up to two clock passes filtered to the starved
// node's frames: the first pass over a recently touched range only
// clears accessed bits (the second-chance policy in ReclaimRange), so a
// zero-yield first pass is immediately followed by one more. If the
// node-filtered passes come up short on a multi-node machine, a final
// unfiltered pass steals from the other nodes — cross-node frames are
// better than an allocation failure, matching zonelist fallback on the
// alloc side.
func (rm *ReclaimManager) doubleSweep(core, node, target int) int {
	n := rm.sweep(core, node, target)
	if n == 0 {
		n = rm.sweep(core, node, target)
	}
	if n < target && rm.m.Phys.Nodes() > 1 {
		stolen := rm.sweep(core, -1, target-n)
		rm.stolen.Add(uint64(stolen))
		n += stolen
	}
	return n
}

// DirectReclaim runs one synchronous reclaim round on behalf of core.
// Unlike the allocator hook it may block waiting for the current
// reclaimer: callers must hold no PT-page locks (the syscall-level
// retry path calls it after its failed transaction closed). Returns
// the number of pages reclaimed (or virtual pages released, if the
// round escalated to an OOM kill).
func (rm *ReclaimManager) DirectReclaim(core, target int) int {
	rm.direct.Lock()
	return rm.directRound(core, rm.m.NodeOf(core), target)
}

// tick is the machine's timer-tick hook: the per-node kswapd analogue.
// Each core services only its own node's kick — when an allocation has
// flagged that zone's pressure, the ticking core (which holds no
// PT-page locks at tick time) sweeps the node's frames until the zone
// recovers to twice its low watermark. No dedicated goroutine exists
// because core IDs are an identity here (BRAVO reader slots, MCS
// queues): a background thread sharing a core ID with a running
// workload would corrupt per-core lock state.
func (rm *ReclaimManager) tick(core int) {
	// The compaction pipeline ticks unconditionally: its scanner and
	// fragmentation checks are not gated on reclaim pressure.
	if cm := rm.compact.Load(); cm != nil {
		cm.tick(core)
	}
	node := rm.m.NodeOf(core)
	if !rm.kicked[node].Load() {
		return
	}
	free := rm.m.Phys.NodeFreeFrames(node)
	low, _ := rm.m.Phys.NodeWatermarks(node)
	if free >= 2*low {
		rm.kicked[node].Store(false)
		return
	}
	rm.bgSweeps.Add(1)
	rm.sweep(core, node, int(2*low-free))
	rm.m.Reap(core)
	// The kick stays set until the zone recovers to its high mark
	// (2x low), so sweeping continues tick after tick under sustained
	// pressure — a first pass may only clear accessed bits.
	if rm.m.Phys.NodeFreeFrames(node) >= 2*low {
		rm.kicked[node].Store(false)
	}
}

// sweep reclaims up to target pages whose frames live on node (-1 for
// any node), rotating the node's clock hand over the registered spaces.
// Guarded against reentry (a sweep's own OpTicks re-enter the tick
// hook) by the calling core's node flag — reentry is same-goroutine, so
// the flag is always the one already held. Spaces without a swap
// device, already killed, or with open transactions on the calling core
// are skipped.
func (rm *ReclaimManager) sweep(core, node, target int) int {
	g := rm.m.NodeOf(core)
	if !rm.sweeping[g].CompareAndSwap(false, true) {
		return 0
	}
	defer rm.sweeping[g].Store(false)
	hand := node
	if hand < 0 {
		hand = g
	}
	total := 0
	for _, a := range rm.snapshot(hand) {
		if total >= target {
			break
		}
		if a.swapID == 0 || a.oomKilled.Load() || a.destroyed.Load() || a.holdsTx(core) {
			continue
		}
		total += a.reclaimSome(core, node, target-total)
	}
	if total > 0 {
		rm.reclaimed.Add(uint64(total))
	}
	return total
}

// oomKill tears down the registered space with the most allocated
// pages, sparing killed spaces and spaces the calling core holds
// locks in. Returns the number of virtual pages released (an upper
// bound on frames freed — never-populated pages count too), so callers
// treat it as a progress indicator.
func (rm *ReclaimManager) oomKill(core int) int {
	var victim *AddrSpace
	var worst uint64
	for _, a := range rm.snapshot(rm.m.NodeOf(core)) {
		if a.oomKilled.Load() || a.destroyed.Load() || a.holdsTx(core) {
			continue
		}
		if sz := a.allocatedPages(core); sz > worst {
			worst, victim = sz, a
		}
	}
	if victim == nil {
		return 0
	}
	rm.oomKills.Add(1)
	return victim.oomTeardown(core)
}

// allocatedPages is the space's footprint in allocated (mapped or
// marked) pages, as the page table records it.
func (a *AddrSpace) allocatedPages(core int) uint64 {
	var n uint64
	for _, ch := range a.chunks(core) {
		n += ch.pages
	}
	return n
}

// reclaimSome swaps out up to target cold pages from this space whose
// frames live on node (-1 for any), one transaction per chunk, resuming
// at the VA clock hand where the previous sweep left off. The core's
// event clock advances with the pages swept (one event per reclaimBatch,
// on top of the transaction's own), not with how many tables hold them,
// so kswapd and kcompactd keep ticking through a long direct reclaim.
// Errors (e.g. an injected swap-write failure) end the sweep early with
// whatever progress was made; ReclaimRange's unwind keeps the page
// resident, so nothing is lost.
func (a *AddrSpace) reclaimSome(core, node, target int) int {
	chunks := a.chunks(core)
	start := chunkAt(chunks, arch.Vaddr(a.reclaimHand.Load()))
	total := 0
	for i := 0; i < len(chunks) && total < target; i++ {
		ch := chunks[(start+i)%len(chunks)]
		a.reclaimHand.Store(uint64(ch.base) + ch.span)
		n, err := a.reclaimRangeNode(core, ch.base, ch.span, target-total, node)
		total += n
		if err != nil {
			break
		}
		for t := ch.pages / reclaimBatch; t > 0; t-- {
			a.m.OpTick(core)
		}
	}
	return total
}

// reclaimBatch is the number of swept pages that count as one operation
// on the simulated clock (Linux's SWAP_CLUSTER_MAX).
const reclaimBatch = 32

// oomTeardown is the last-resort unwind: mark the space killed (new
// allocating syscalls fail with ErrOOMKilled), drop it from the reclaim
// clock — sweeps must not keep walking a space that is mid-unwind, and
// the killed space can contribute nothing further anyway — and unmap
// every allocated chunk, releasing its frames and swap blocks. Returns
// the number of virtual pages released. Idempotent.
func (a *AddrSpace) oomTeardown(core int) int {
	if !a.oomKilled.CompareAndSwap(false, true) {
		return 0
	}
	if rm := a.reclaim; rm != nil {
		rm.Unregister(a)
	}
	released := 0
	for _, ch := range a.chunks(core) {
		if err := a.Munmap(core, ch.base, ch.span); err == nil {
			released += int(ch.pages)
		}
	}
	a.pruneFileMappings(0, arch.MaxVaddr) // records that straddled chunks
	a.m.Reap(core)
	return released
}

// OOMKilled reports whether this space was torn down by the OOM killer.
func (a *AddrSpace) OOMKilled() bool { return a.oomKilled.Load() }

// gate is the first check of every entry point (mm.Gate): one atomic
// load and one compare. A destroyed space's tree is freed, so a call
// that went on would walk recycled memory or answer from a stale TLB
// entry (Destroy is exclusive by contract; this catches use after it,
// not a race with it), and a core index outside the machine would index
// the per-core words the bracket touches next — the event clock, the
// transaction word, the cursor cache, the VA arena. Inlined into access.
func (a *AddrSpace) gate(core int) error {
	return mm.Gate(&a.destroyed, core, len(a.cursors))
}

// checkRange is the gate of entry points that take a caller-chosen
// range: gate, and the range must be canonical.
func (a *AddrSpace) checkRange(core int, va arch.Vaddr, size uint64) error {
	return mm.GateRange(&a.destroyed, core, len(a.cursors), va, size)
}

// checkAlive is the gate of allocating entry points: gate, and they also
// refuse a space the OOM killer tore down.
func (a *AddrSpace) checkAlive(core int) error {
	if err := a.gate(core); err != nil {
		return err
	}
	if a.oomKilled.Load() {
		return ErrOOMKilled
	}
	return nil
}

// holdsTx reports whether core's goroutine may hold PT-page locks in
// this space — the rely condition of every sweep that locks on behalf of
// a caller it did not start from (the in-allocator reclaim hook, the OOM
// killer, the collapse scanner): the locks are not reentrant, so they
// skip such a space. Spaces are told apart by ASID, unique among live
// spaces of a machine.
func (a *AddrSpace) holdsTx(core int) bool { return a.m.HoldsTx(core, uint64(a.asid)) }

// Syscall-level retry tuning: a failed allocating syscall retries up to
// oomRetries times, each preceded by a direct-reclaim round asking for
// oomRetryTarget pages.
const (
	oomRetries     = 3
	oomRetryTarget = 64
)

// retryOOM runs op; when it fails with an out-of-memory-class error and
// the space is registered with a reclaim manager, it runs direct
// reclaim — from syscall context, with no locks held, so this time the
// sweep may target this very space — and retries, bounded. This is the
// hardened unwind path: op must be a complete transaction (lock, work,
// close, undo on failure) so re-running it from scratch is sound.
func (a *AddrSpace) retryOOM(core int, op func() error) error {
	err := op()
	for attempt := 0; attempt < oomRetries; attempt++ {
		if err == nil || !errors.Is(err, mem.ErrOutOfMemory) || a.reclaim == nil {
			return err
		}
		if a.reclaim.DirectReclaim(core, oomRetryTarget) == 0 {
			return err
		}
		err = op()
	}
	return err
}
