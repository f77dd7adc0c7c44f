package core

import (
	"errors"
	"slices"
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

// ReclaimConfig tunes the reclaim half of a machine's Daemon.
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

// Daemon is a machine's one background memory daemon: the mem.Pressure
// its physical allocator and its timer tick call into. The reclaim half
// (AttachReclaim) is direct reclaim on the allocating goroutine, the
// kswapd analogue once a zone's free frames dip below its low watermark,
// and the OOM killer of last resort. The compaction half
// (AttachCompaction, compact.go) is direct compaction, kcompactd, a
// khugepaged-style collapse scanner and the NUMA balancer. Either way the
// daemon is the locked break-before-make remap behind every frame
// migration (migrate.go): migration is a capability of the core layer,
// not a policy, so it is on as soon as the daemon exists. Address spaces
// opt in with Register.
//
// Reclaim is a clock sweep: a per-node hand rotates over the registered
// spaces, and within each space over its allocated chunks, swapping cold
// private anonymous pages out through the space's swap device
// (ReclaimRange). Each node runs its own kswapd against its own zone's
// watermarks, and direct reclaim first sweeps only frames on the starved
// placement node, stealing from other nodes' frames only when the
// node-filtered pass comes up short.
//
// The daemon has no goroutine: core IDs are an identity here (BRAVO
// reader slots, MCS queues), and a background thread sharing one with a
// running workload would corrupt per-core lock state. Background work
// runs from the timer tick of a core that holds no PT-page locks.
type Daemon struct {
	m *cpusim.Machine
	// reclaimCfg and compactCfg are the two halves, nil while off.
	reclaimCfg atomic.Pointer[ReclaimConfig]
	compactCfg atomic.Pointer[CompactConfig]

	mu     sync.Mutex // guards spaces and both hands
	spaces []*AddrSpace
	clock  []int // the reclaim clock: one hand per node
	scan   int   // the collapse scanner's hand

	// direct serializes direct reclaimers. The allocation slow path may
	// run while the allocating goroutine holds PT-page locks; keeping at
	// most one such reclaimer (TryLock, losers give up) means no cycle
	// of lock-holding reclaimers can form.
	direct sync.Mutex
	// sweeping guards against sweep reentry, one flag per node:
	// ReclaimRange drives OpTick, whose tick must not start a nested
	// sweep. Reentry is always same-goroutine (hence same core, hence
	// same node), so a per-node flag suffices — and it doubles as the
	// one-kswapd-per-node limit, letting different nodes' sweeps run
	// concurrently like Linux's per-node kswapd threads.
	sweeping []atomic.Bool
	// kicked[n] is set by Kick when node n's zone drops below its low
	// watermark and consumed by node n's next timer tick.
	kicked []atomic.Bool
	// busy single-flights the compaction quantum: CollapseHuge and
	// compaction both re-enter OpTick, and concurrent cores need not
	// stack scans.
	busy atomic.Bool
	// compacting[node] single-flights compaction per zone, shared by the
	// direct and background paths.
	compacting []atomic.Bool
	numaHand   atomic.Int64

	directRounds atomic.Uint64
	bgSweeps     atomic.Uint64
	reclaimed    atomic.Uint64
	stolen       atomic.Uint64
	oomKills     atomic.Uint64
	// Swap-write telemetry, counted by evict.
	swapCompleted atomic.Uint64
	swapFailed    atomic.Uint64

	spansScanned  atomic.Uint64
	promotions    atomic.Uint64
	directRuns    atomic.Uint64
	directRefused atomic.Uint64
	numaMoves     atomic.Uint64
}

// DaemonStats is a snapshot of the daemon's counters.
type DaemonStats struct {
	DirectRounds uint64 // direct-reclaim invocations from the slow path
	BgSweeps     uint64 // background (tick-driven) sweeps
	Reclaimed    uint64 // pages swapped out by the daemon
	// Stolen counts pages reclaimed in cross-node passes — direct
	// reclaim that had to look beyond the starved node's own frames.
	Stolen   uint64
	OOMKills uint64 // address spaces torn down
	// Swap writes: attempted (succeeded + failed), succeeded and failed.
	SwapQueued    uint64
	SwapCompleted uint64
	SwapFailed    uint64

	SpansScanned  uint64 // khugepaged span scans
	Promotions    uint64 // successful CollapseHuge calls
	DirectRuns    uint64 // direct-compaction passes run for the allocator
	DirectRefused uint64 // direct compaction refused (caller inside a txn)
	NumaMoves     uint64 // pages the NUMA balancer moved
}

// Stats snapshots the daemon's counters.
func (d *Daemon) Stats() DaemonStats {
	completed, failed := d.swapCompleted.Load(), d.swapFailed.Load()
	return DaemonStats{
		DirectRounds: d.directRounds.Load(),
		BgSweeps:     d.bgSweeps.Load(),
		Reclaimed:    d.reclaimed.Load(),
		Stolen:       d.stolen.Load(),
		OOMKills:     d.oomKills.Load(),

		SwapQueued:    completed + failed,
		SwapCompleted: completed,
		SwapFailed:    failed,

		SpansScanned:  d.spansScanned.Load(),
		Promotions:    d.promotions.Load(),
		DirectRuns:    d.directRuns.Load(),
		DirectRefused: d.directRefused.Load(),
		NumaMoves:     d.numaMoves.Load(),
	}
}

// daemonOf returns m's daemon, installing one — migration on, both
// policy halves off — on first use.
func daemonOf(m *cpusim.Machine) *Daemon {
	if d, ok := m.Phys.Pressure().(*Daemon); ok {
		return d
	}
	n := m.Phys.Nodes()
	d := &Daemon{
		m:          m,
		clock:      make([]int, n),
		sweeping:   make([]atomic.Bool, n),
		kicked:     make([]atomic.Bool, n),
		compacting: make([]atomic.Bool, n),
	}
	m.Phys.SetPressure(d)
	return d
}

// AttachReclaim switches on the reclaim half of m's daemon, creating the
// daemon on first use, and sets the allocator's watermarks. Attaching
// again replaces the configuration.
func AttachReclaim(m *cpusim.Machine, cfg ReclaimConfig) *Daemon {
	total := uint64(m.Phys.NFrames())
	if cfg.LowWater == 0 {
		cfg.LowWater = max(total/8, 1)
	}
	if cfg.MinWater == 0 {
		cfg.MinWater = max(total/64, 1)
	}
	d := daemonOf(m)
	m.Phys.SetWatermarks(cfg.LowWater, cfg.MinWater)
	d.reclaimCfg.Store(&cfg)
	return d
}

// Register puts a on the daemon's clocks, once however often it is
// called, and enables its syscall-level OOM retry path. Reclaim sweeps
// skip a space without a swap device.
func (d *Daemon) Register(a *AddrSpace) {
	d.mu.Lock()
	if !slices.Contains(d.spaces, a) {
		d.spaces = append(d.spaces, a)
	}
	d.mu.Unlock()
	a.daemon.Store(d)
}

// Registered reports how many spaces are on the daemon's clocks.
func (d *Daemon) Registered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.spaces)
}

// Unregister takes a off the daemon's clocks; Destroy and the OOM killer
// call it.
func (d *Daemon) Unregister(a *AddrSpace) {
	d.mu.Lock()
	if i := slices.Index(d.spaces, a); i >= 0 {
		d.spaces = slices.Delete(d.spaces, i, i+1)
	}
	d.mu.Unlock()
	a.daemon.CompareAndSwap(d, nil)
}

// snapshot returns the registered spaces rotated so node's clock hand's
// current position comes first, and advances that hand. Each node keeps
// its own hand so concurrent per-node sweeps don't chase each other
// onto the same space.
func (d *Daemon) snapshot(node int) []*AddrSpace {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.spaces)
	if n == 0 {
		return nil
	}
	out := make([]*AddrSpace, 0, n)
	start := d.clock[node] % n
	for i := 0; i < n; i++ {
		out = append(out, d.spaces[(start+i)%n])
	}
	d.clock[node] = (start + 1) % n
	return out
}

// Tick is the daemon's timer-tick work, on a core that holds no PT-page
// locks: the compaction quantum first — its scanner and fragmentation
// checks are not gated on reclaim pressure — then this node's kswapd.
func (d *Daemon) Tick(core int) {
	if cfg := d.compactCfg.Load(); cfg != nil {
		d.compactTick(core, cfg)
	}
	if d.reclaimCfg.Load() != nil {
		d.kswapd(core)
	}
}

// Kick latches node's kswapd for the node's next timer tick.
func (d *Daemon) Kick(node int) { d.kicked[node].Store(true) }

// Reclaim is direct reclaim on the allocating goroutine, which may be
// inside a page-table transaction. At most one lock-holding reclaimer
// runs at a time (TryLock); sweep skips any space the calling core has
// open transactions in, so the reclaimer never re-locks a tree it
// already holds locks in. node is the allocation's starved placement
// node: the node-filtered passes free frames where the allocator
// actually needs them. -1 while the reclaim half is off.
func (d *Daemon) Reclaim(core, node, target int) int {
	if d.reclaimCfg.Load() == nil {
		return -1
	}
	if !d.direct.TryLock() {
		return 0
	}
	return d.directRound(core, node, target)
}

// directRound is one direct-reclaim round, entered holding d.direct
// and releasing it. It ends by driving the calling core's deferred
// machinery — a TLB tick and an RCU poll, the "backoff via simulated
// ticks" — so frames freed by the sweep actually reach the allocator
// before the caller retries.
func (d *Daemon) directRound(core, node, target int) int {
	defer d.direct.Unlock()
	d.directRounds.Add(1)
	n := d.doubleSweep(core, node, target)
	d.m.Reap(core)
	if n == 0 && d.reclaimCfg.Load().OOMKill {
		n = d.oomKill(core)
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
func (d *Daemon) doubleSweep(core, node, target int) int {
	n := d.sweep(core, node, target)
	if n == 0 {
		n = d.sweep(core, node, target)
	}
	if n < target && d.m.Phys.Nodes() > 1 {
		stolen := d.sweep(core, -1, target-n)
		d.stolen.Add(uint64(stolen))
		n += stolen
	}
	return n
}

// DirectReclaim runs one synchronous reclaim round on behalf of core.
// Unlike Reclaim it may block waiting for the current reclaimer:
// callers must hold no PT-page locks (the syscall-level retry path calls
// it after its failed transaction closed). Returns the number of pages
// reclaimed (or virtual pages released, if the round escalated to an
// OOM kill); 0 while the reclaim half is off.
func (d *Daemon) DirectReclaim(core, target int) int {
	if d.reclaimCfg.Load() == nil {
		return 0
	}
	d.direct.Lock()
	return d.directRound(core, d.m.NodeOf(core), target)
}

// kswapd is the per-node background sweeper. Each core services only
// its own node's kick — when an allocation has flagged that zone's
// pressure, the ticking core sweeps the node's frames until the zone
// recovers to twice its low watermark.
func (d *Daemon) kswapd(core int) {
	node := d.m.NodeOf(core)
	if !d.kicked[node].Load() {
		return
	}
	free := d.m.Phys.NodeFreeFrames(node)
	low, _ := d.m.Phys.NodeWatermarks(node)
	if free >= 2*low {
		d.kicked[node].Store(false)
		return
	}
	d.bgSweeps.Add(1)
	d.sweep(core, node, int(2*low-free))
	d.m.Reap(core)
	// The kick stays set until the zone recovers to its high mark
	// (2x low), so sweeping continues tick after tick under sustained
	// pressure — a first pass may only clear accessed bits.
	if d.m.Phys.NodeFreeFrames(node) >= 2*low {
		d.kicked[node].Store(false)
	}
}

// sweep reclaims up to target pages whose frames live on node (-1 for
// any node), rotating the node's clock hand over the registered spaces.
// Guarded against reentry (a sweep's own OpTicks re-enter the tick) by
// the calling core's node flag — reentry is same-goroutine, so the flag
// is always the one already held. Spaces without a swap device, already
// killed, or with open transactions on the calling core are skipped.
func (d *Daemon) sweep(core, node, target int) int {
	g := d.m.NodeOf(core)
	if !d.sweeping[g].CompareAndSwap(false, true) {
		return 0
	}
	defer d.sweeping[g].Store(false)
	hand := node
	if hand < 0 {
		hand = g
	}
	total := 0
	for _, a := range d.snapshot(hand) {
		if total >= target {
			break
		}
		if a.swapID == 0 || a.oomKilled.Load() || a.destroyed.Load() || a.holdsTx(core) {
			continue
		}
		total += a.reclaimSome(core, node, target-total)
	}
	if total > 0 {
		d.reclaimed.Add(uint64(total))
	}
	return total
}

// oomKill tears down the registered space with the most allocated
// pages, sparing killed spaces and spaces the calling core holds
// locks in. Returns the number of virtual pages released (an upper
// bound on frames freed — never-populated pages count too), so callers
// treat it as a progress indicator.
func (d *Daemon) oomKill(core int) int {
	var victim *AddrSpace
	var worst uint64
	for _, a := range d.snapshot(d.m.NodeOf(core)) {
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
	d.oomKills.Add(1)
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
// allocating syscalls fail with ErrOOMKilled), take it off the daemon's
// clocks — sweeps must not keep walking a space that is mid-unwind, and
// the killed space can contribute nothing further anyway — and unmap
// every allocated chunk, releasing its frames and swap blocks. Returns
// the number of virtual pages released. Idempotent.
func (a *AddrSpace) oomTeardown(core int) int {
	if !a.oomKilled.CompareAndSwap(false, true) {
		return 0
	}
	if d := a.daemon.Load(); d != nil {
		d.Unregister(a)
	}
	released := 0
	for _, ch := range a.chunks(core) {
		if err := a.Munmap(core, ch.base, ch.span); err == nil {
			released += int(ch.pages)
		}
	}
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
// a caller it did not start from (the in-allocator reclaim, the OOM
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

// retryOOM runs try; when it fails with an out-of-memory-class error and
// the space is registered with a daemon, it runs direct reclaim — from
// syscall context, with no locks held, so this time the sweep may target
// this very space — and retries, bounded. This is the hardened unwind
// path: try must be a complete transaction (lock, work, close, undo on
// failure) so re-running it from scratch is sound.
func (a *AddrSpace) retryOOM(core int, try func() error) error {
	err := try()
	for attempt := 0; attempt < oomRetries; attempt++ {
		d := a.daemon.Load()
		if err == nil || !errors.Is(err, mem.ErrOutOfMemory) || d == nil {
			return err
		}
		if d.DirectReclaim(core, oomRetryTarget) == 0 {
			return err
		}
		err = try()
	}
	return err
}
