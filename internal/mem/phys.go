// Package mem simulates the physical-memory substrate CortenMM manages:
// a frame allocator (buddy system with per-core caches, following Linux as
// §4.5 describes), a frame table of page descriptors indexed by physical
// frame number (the paper's contiguous descriptor region allocated at
// boot), a simulated block device for swap, and file objects with a page
// cache and the reverse-mapping registry of §4.5.
package mem

import (
	"fmt"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// Kind classifies what a physical frame is used for. The accounting per
// kind feeds the memory-overhead experiments (Figures 18 and 22).
type Kind uint32

const (
	// KindFree marks an unallocated frame.
	KindFree Kind = iota
	// KindAnon is an anonymous data page.
	KindAnon
	// KindFile is a file-backed page-cache page.
	KindFile
	// KindPT is a page-table page.
	KindPT
	// KindKernel is any other kernel allocation (VMA structs, logs, ...).
	KindKernel
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindAnon:
		return "anon"
	case KindFile:
		return "file"
	case KindPT:
		return "pagetable"
	case KindKernel:
		return "kernel"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

// FrameDesc is the page descriptor of one physical frame, the analog of
// Linux's struct page and of CortenMM's PT-page descriptor (§3.3). The
// descriptor of a PT page additionally carries protocol state installed by
// the page-table layer through the PT field.
type FrameDesc struct {
	// Ref counts owners of the frame (page-cache entries, PTE mappings,
	// transient pins). The frame returns to the allocator when it hits 0.
	Ref atomic.Int64
	// mapping is what the page tables say about the frame, in one word so
	// that a page's life writes it once per map and once per unmap: the
	// number of PTEs mapping it across all address spaces in the low
	// mapCountBits bits (the COW fault handler uses it to detect exclusive
	// ownership, Fig 8) and, above, the migration reverse-map hint — the
	// VPN at which an exclusive anonymous 4-KiB mapping was last installed
	// (never 0 for a mapped page: VA 0 is unmapped by construction). The
	// hint is valid iff the count is exactly 1, so sharing, unmapping and
	// freeing a frame never write it: a second mapper outvotes it, and a
	// first mapper that claims no exclusivity replaces it with none.
	// Purely advisory even then (§4.5): what survives from a count that
	// went up and came back down may name a mapping that is gone, and the
	// migrator revalidates through the lock protocol before trusting it.
	mapping atomic.Uint64
	// Kind is the current use of the frame.
	Kind Kind
	// order is the buddy order the frame was allocated with (head only).
	// Atomic because the compaction scanner inspects candidate frames
	// lock-free while ShatterBlock may rewrite it concurrently.
	order atomic.Uint32
	// Node is the NUMA node owning this frame — a static tag assigned
	// at boot from the zone layout; Audit cross-checks it against the
	// owning zone.
	Node int32
	// aliased marks a payload that is a sub-slice of another frame's
	// buffer (ShatterBlock children); such a payload is never kept.
	aliased bool
	// tail is head-PFN+1 when this frame is a non-head member of a
	// multi-frame (huge) block, 0 otherwise. Atomic because ShatterBlock
	// clears it while the compaction scanner probes candidates lock-free.
	tail atomic.Int64
	// data is the data payload of the frame's current life, installed on
	// first touch. Published by CAS: two cores may race the first touch
	// of a shared frame, so the winner installs the buffer and losers
	// adopt it.
	data atomic.Pointer[[]byte]
	// spare is the 4-KiB payload of an earlier life, contents stale, kept
	// for the next first touch to claim, clear and publish. Only a frame
	// that sits in a pcp cache, or was popped from one and not touched
	// since, has one.
	spare atomic.Pointer[[]byte]

	// anonOwner is the owning address space for mapping's hint, stored
	// before the hint publishes. Never cleared — a stale owner is harmless
	// because validation rejects mismatches.
	anonOwner atomic.Pointer[AnonOwner]
	// access packs the NUMA access-streak telemetry:
	// (node+1)<<32 | streak. Lossy — concurrent updates may drop counts.
	access atomic.Uint64

	// words is the PT-page payload: 512 PTEs accessed atomically.
	words *[arch.PTEntries]uint64
	// PT points to page-table-layer state (lock, level, stale flag,
	// per-PTE metadata array) when Kind == KindPT. Declared as any to
	// keep the dependency direction mem <- pt.
	PT any
	// RMap is the reverse-mapping record of a named page: the owning
	// *File and page index. Reverse mappings are hints (§4.5): consumers
	// must re-check through the transactional interface.
	RMap RMapRef

	// Two cache lines exactly (TestFrameDescSize): the words the anonymous
	// page lifecycle touches first, and no line shared with a neighbour.
	_ [16]byte
}

// AnonOwner is the identity an address space records anonymous
// reverse-map hints under. Frames point at it, so the hint's owner is
// one word whatever the concrete type of Space (a *core.AddrSpace for
// every space the migrator can move pages of; held as any to keep the
// dependency direction mem <- core).
type AnonOwner struct{ Space any }

// Order returns the buddy order the frame was allocated with (head only).
func (d *FrameDesc) Order() int { return int(d.order.Load()) }

// Tail reports whether this frame is a non-head member of a huge block.
func (d *FrameDesc) Tail() bool { return d.tail.Load() != 0 }

// The mapping word's count field; the hint's VPN fills the bits above.
const (
	mapCountBits = 64 - (arch.VABits - arch.PageShift)
	mapCountMask = 1<<mapCountBits - 1
)

// MapCount returns the number of PTEs mapping this frame.
func (d *FrameDesc) MapCount() int64 { return int64(d.mapping.Load() & mapCountMask) }

// Map counts one more PTE mapping this frame that claims no exclusivity.
func (d *FrameDesc) Map() { d.mapMore(1, 0) }

// MapN is n Maps at once (a huge leaf split into n+1).
func (d *FrameDesc) MapN(n uint64) { d.mapMore(n, 0) }

// MapExclusive counts one more PTE and records it as the migration
// reverse-map hint: owner maps this anonymous 4-KiB frame privately at
// va. Owner is stored first — and only when it changed, which a recycled
// frame's rarely has — so a reader that observes the hint also observes
// its owner.
func (d *FrameDesc) MapExclusive(owner *AnonOwner, va uint64) {
	if d.anonOwner.Load() != owner {
		d.anonOwner.Store(owner)
	}
	d.mapMore(1, va>>arch.PageShift)
}

// mapMore adds n to the count in one atomic write. A non-zero vpn becomes
// the hint; otherwise the hint stays — the count it needs is now at least
// two — unless these are the first mappings of a life, which must not
// inherit the last life's.
func (d *FrameDesc) mapMore(n, vpn uint64) {
	for {
		old := d.mapping.Load()
		count := old&mapCountMask + n
		if count > mapCountMask {
			panic("mem: map count overflow")
		}
		hint := old &^ mapCountMask
		if vpn != 0 || count == n {
			hint = vpn << mapCountBits
		}
		if d.mapping.CompareAndSwap(old, hint|count) {
			return
		}
	}
}

// Unmap counts one PTE fewer.
func (d *FrameDesc) Unmap() { d.UnmapN(1) }

// UnmapN counts n PTEs fewer, leaving the hint alone.
func (d *FrameDesc) UnmapN(n uint64) {
	if d.mapping.Add(-n)&mapCountMask > mapCountMask-n {
		panic("mem: Unmap of a frame not mapped that often")
	}
}

// AnonRMap returns the migration reverse-map hint (owning space, va) of
// a frame mapped exactly once; va == 0 means no hint.
func (d *FrameDesc) AnonRMap() (any, uint64) {
	w := d.mapping.Load()
	if w&mapCountMask != 1 || w>>mapCountBits == 0 {
		return nil, 0
	}
	return d.anonOwner.Load().Space, w >> mapCountBits << arch.PageShift
}

// RMapRef identifies the logical owner of a named frame for reverse
// mapping (private anonymous pages use the AnonRMap hint instead).
type RMapRef struct {
	// File is non-nil for named (file-backed or kernel-named shared
	// anonymous) pages; Index is the page index within the file.
	File  *File
	Index uint64
}

// Pressure is the one boundary between the physical allocator and the
// policy that relieves it: what allocations call when a zone runs short,
// and what the machine's timer tick drives. A machine has at most one
// (the core layer's Daemon), installed with SetPressure. Each method's
// rely condition is the state its caller is in:
//
//   - Reclaim frees up to target frames for an allocation that found
//     node's zonelist exhausted, preferring node's own frames, and returns
//     how many pages it freed — or a negative count when it does no
//     reclaim at all, after which the slow path fails without more rounds.
//     It runs on the allocating goroutine, which may be inside a
//     page-table transaction: it must skip every space that goroutine may
//     hold locks in, and must not block on another reclaimer. It can run
//     from any allocation and waits on other spaces' PT locks, so no lock
//     that a PT-lock holder can wait on may be held across an allocation
//     (File.GetPage allocates with its file unlocked).
//   - Kick reports that node's zone dipped below its low watermark. Every
//     allocation that observes it calls it, so it only latches.
//   - Compact compacts node's zone so a block of 2^order frames can form,
//     reporting progress. Like Reclaim it may run inside a transaction,
//     and there it must refuse: a migration locks the space mapping its
//     frame, which may be the caller's own or one whose lock holder waits
//     on the caller — lock order between spaces.
//   - Migrate runs the locked break + copy + remap for one pinned
//     candidate and reports whether it moved. Its one caller, migrate,
//     holds no PT lock. It must not free Src or Dst: a successful remap
//     takes Dst's allocation reference and drops Src's mapping reference;
//     the caller drops its pin and frees Dst on failure.
//   - Tick is the background work of a timer tick, run on the ticking core
//     after its deferred work. OpTick fires before a transaction begins,
//     so Tick never runs inside one.
type Pressure interface {
	Reclaim(core, node, target int) int
	Kick(node int)
	Compact(core, node, order int) bool
	Migrate(core int, req MigrateReq) bool
	Tick(core int)
}

// Allocation slow-path tuning: on buddy exhaustion the allocator drains
// the per-core caches, then runs up to reclaimRounds direct-reclaim
// rounds (each followed by another drain) before failing hard.
const (
	reclaimRounds = 4
	reclaimTarget = 32 // frames requested per Reclaim round
)

// PhysMem is the simulated physical memory: a frame table plus per-NUMA
// -node buddy zones with per-core frame caches. Each core's pcp cache
// holds only frames of its home node; allocations prefer the placement
// node's zone and walk its zonelist on exhaustion.
type PhysMem struct {
	frames []FrameDesc
	zones  []zone
	// zoneSize is the uniform shard size (the last zone absorbs the
	// remainder); zoneOf divides by it.
	zoneSize int
	// coreNodes maps each core to its home node.
	coreNodes []int
	// zonelists[n] is node n's fallback walk order (local first, then
	// by increasing node distance).
	zonelists [][]int
	// distance is the SLIT-style node-distance table driving zonelist
	// order; distance[a][b] is the cost of node a reaching node b's
	// memory (10 intra-node, 20+ across the interconnect).
	distance   [][]int
	allocStats []nodeAllocCounters
	policy     atomic.Pointer[AllocPolicy]
	pcp        []pcpCache
	kinds      [numKinds]atomic.Int64 // frames allocated per kind

	// lowWater/minWater are the global reclaim watermarks in frames
	// (0 = disabled); each zone carries its proportional share.
	// Dropping a zone below its low share kicks background reclaim for
	// that node; the allocator only fails hard once direct reclaim
	// cannot lift global free frames above min.
	lowWater atomic.Uint64
	minWater atomic.Uint64
	// pressure is the installed Pressure, if any (SetPressure).
	pressure atomic.Pointer[Pressure]
	// Migration telemetry (MigrationStats).
	migAttempted atomic.Uint64
	migMigrated  atomic.Uint64
	migFailed    atomic.Uint64
	// numaTrack gates NoteAccess streak accounting (off unless NUMA
	// balancing is configured, keeping the hot translate path cheap).
	numaTrack atomic.Bool
	// objs names the files and swap devices status words refer to.
	objs objTable
}

// NewPhysMem creates a single-node physical memory of nframes 4-KiB
// frames serving the given number of cores. Frame 0 is reserved (a NULL
// frame), as on real hardware. NUMA machines use NewPhysMemNUMA.
func NewPhysMem(nframes, cores int) *PhysMem {
	return NewPhysMemNUMA(nframes, cores, 1, nil)
}

// NFrames returns the number of physical frames.
func (m *PhysMem) NFrames() int { return len(m.frames) }

// Desc returns the page descriptor of pfn.
func (m *PhysMem) Desc(pfn arch.PFN) *FrameDesc { return &m.frames[pfn] }

// ErrOutOfMemory is returned when no frame of the requested order exists.
var ErrOutOfMemory = fmt.Errorf("mem: out of physical memory")

// ErrFragmented is returned for an order>0 allocation when free memory
// was sufficient (>= 2^order free frames existed in the zonelist) but no
// contiguous block could be assembled even after compaction — the zone
// is fragmented, not exhausted. It wraps ErrOutOfMemory so existing
// errors.Is(err, ErrOutOfMemory) retry/OOM paths treat it as the same
// class.
var ErrFragmented = fmt.Errorf("mem: physical memory fragmented (free but uncoalescable): %w", ErrOutOfMemory)

// SetWatermarks configures the global reclaim watermarks, in frames,
// distributing each zone's share proportional to its size. Zero
// disables the corresponding behavior.
func (m *PhysMem) SetWatermarks(low, min uint64) {
	m.lowWater.Store(low)
	m.minWater.Store(min)
	total := uint64(len(m.frames))
	for i := range m.zones {
		z := &m.zones[i]
		z.lowWater.Store(low * z.frames() / total)
		z.minWater.Store(min * z.frames() / total)
	}
}

// Watermarks returns the configured (low, min) watermarks in frames.
func (m *PhysMem) Watermarks() (low, min uint64) {
	return m.lowWater.Load(), m.minWater.Load()
}

// SetPressure installs p as the machine's Pressure (nil uninstalls).
func (m *PhysMem) SetPressure(p Pressure) { m.pressure.Store(&p) }

// Pressure returns the installed Pressure, or nil.
func (m *PhysMem) Pressure() Pressure {
	if p := m.pressure.Load(); p != nil {
		return *p
	}
	return nil
}

// checkPressure kicks background reclaim when the placement zone's free
// frames (zone buddy only — one atomic load, no locks) dip below its
// low watermark.
func (m *PhysMem) checkPressure(node int) {
	z := &m.zones[node]
	low := z.lowWater.Load()
	if low == 0 || z.buddy.freeCount() >= low {
		return
	}
	if p := m.Pressure(); p != nil {
		p.Kick(node)
	}
}

// DrainPCP flushes every per-core frame cache back into its home zone's
// buddy so scattered order-0 frames can coalesce into higher orders and
// so one core's hoard is visible to all. Returns the number of frames
// moved.
func (m *PhysMem) DrainPCP() int {
	total := 0
	for i := range m.pcp {
		if fs := m.pcp[i].drain(); len(fs) > 0 {
			m.toBuddy(m.coreNode(i), fs)
			total += len(fs)
		}
	}
	return total
}

// toBuddy returns order-0 frames that just left a pcp cache to zone z's
// buddy. The caller took them off the cache's list and so owns them; a
// payload kept for reuse goes no further than the cache.
func (m *PhysMem) toBuddy(z int, pfns []arch.PFN) {
	for _, pfn := range pfns {
		m.frames[pfn].dropSpare()
	}
	m.zones[z].buddy.freeBatch(pfns)
}

// allocSlow is the allocation slow path, entered on buddy exhaustion.
// Rung one drains the pcp caches back to the buddy and retries. For
// order > 0 requests it then tries direct compaction — fragmentation is
// not exhaustion, so reclaiming (evicting pages) before compacting would
// throw data away needlessly. If that fails it runs bounded
// direct-reclaim rounds through the installed Pressure — which performs
// its own backoff by driving simulated timer ticks (TLB sweeps + RCU
// polls) so deferred frees reach the allocator — retrying after each,
// and finally compacts once more (reclaim may have freed scattered
// frames that only compaction can assemble). It fails hard only when a
// round reclaims nothing while free frames sit at or below the min
// watermark, or after reclaimRounds rounds. retry must re-attempt the
// original allocation and report success.
func (m *PhysMem) allocSlow(core, node, order int, retry func() bool) bool {
	m.DrainPCP()
	if retry() {
		return true
	}
	p := m.Pressure()
	if p == nil {
		return false
	}
	if order > 0 && m.tryCompact(p, core, node, order) && retry() {
		return true
	}
	for round := 0; round < reclaimRounds; round++ {
		got := p.Reclaim(core, node, reclaimTarget)
		if got < 0 {
			return false
		}
		m.DrainPCP()
		if retry() {
			return true
		}
		// A zero-progress round above the min watermark is not yet a
		// hard failure — deferred frees may still land (Reclaim's tick
		// backoff drains them); below min with no progress, stop early.
		if got == 0 && m.FreeFrames() < m.minWater.Load() {
			break
		}
	}
	if order > 0 && m.tryCompact(p, core, node, order) && retry() {
		return true
	}
	return false
}

// tryCompact runs p's direct compaction and drains the pcp caches so any
// frames it freed can coalesce. Reports whether compaction claimed
// progress.
func (m *PhysMem) tryCompact(p Pressure, core, node, order int) bool {
	ok := p.Compact(core, node, order)
	m.DrainPCP()
	return ok
}

// AllocFrame allocates one 4-KiB frame of the given kind, preferring the
// calling core's frame cache and home zone (first touch). The frame
// starts with Ref == 1.
func (m *PhysMem) AllocFrame(core int, kind Kind) (arch.PFN, error) {
	return m.AllocFrameOn(core, m.preferredNode(core), kind)
}

// AllocFrameOn allocates one 4-KiB frame of the given kind placed on
// node when possible, walking node's zonelist on exhaustion. The
// per-core frame cache serves the allocation only when node is the
// calling core's home node, so the cache never hands out off-node
// frames. The frame starts with Ref == 1.
func (m *PhysMem) AllocFrameOn(core, node int, kind Kind) (arch.PFN, error) {
	if fault.MemAllocFrame.Fire() {
		return 0, fault.MemAllocFrame.Errorf(ErrOutOfMemory)
	}
	var pfn arch.PFN
	var ok bool
	if kind == KindPT {
		// Unmovable frames skip the pcp cache (whose frames sit at
		// arbitrary, typically low PFNs) and are clustered at the zone's
		// high end so they never pin a block compaction could otherwise
		// re-form. On exhaustion fall through to the ordinary path: a
		// badly placed PT page beats a failed allocation.
		pfn, ok = m.zonelistAlloc(core, node, 0, true)
	}
	if !ok && node == m.coreNode(core) {
		pfn, ok = m.pcp[core].pop()
		if !ok {
			pfn, ok = m.refill(core)
		}
	}
	if !ok {
		pfn, ok = m.zonelistAlloc(core, node, 0, false)
	}
	if !ok {
		ok = m.allocSlow(core, node, 0, func() bool {
			pfn, ok = m.zonelistAlloc(core, node, 0, false)
			return ok
		})
	}
	if !ok {
		return 0, ErrOutOfMemory
	}
	m.initFrames(kind, 0, nil, pfn)
	m.checkPressure(node)
	return pfn, nil
}

// refill grabs a batch of order-0 frames from the core's home zone,
// keeping all but one in the core's cache. Only home-zone frames ever
// enter a pcp cache.
func (m *PhysMem) refill(core int) (arch.PFN, bool) {
	var batch [pcpBatch]arch.PFN
	home := m.coreNode(core)
	n := m.zones[home].buddy.allocBatch(batch[:])
	if n == 0 {
		return 0, false
	}
	m.account(core, home, n)
	m.pcp[core].fill(batch[:n-1])
	return batch[n-1], true
}

// AllocFrameBatch allocates up to len(out) order-0 frames of the given
// kind in one shot, draining the core's cache and the placement zones
// under one lock acquisition each instead of one per frame. Returns the
// number of frames obtained; fewer than requested (possibly zero) means
// physical memory is exhausted even after direct reclaim. Each frame
// starts with Ref == 1, exactly as from AllocFrame.
func (m *PhysMem) AllocFrameBatch(core int, kind Kind, out []arch.PFN) int {
	return m.allocFrameBatch(core, kind, nil, out)
}

// AllocAnonBatch is AllocFrameBatch for the bulk-populate path:
// anonymous frames that start their life already mapped once, frame i at
// va + i pages — with owner, exclusively, hinted as MapExclusive(owner,
// va+i*PageSize) would; with owner nil (a shared or copy-on-write span),
// counted as Map would. The caller writes the PTEs that make the count
// true.
func (m *PhysMem) AllocAnonBatch(core int, owner *AnonOwner, va uint64, out []arch.PFN) int {
	return m.allocFrameBatch(core, KindAnon, &firstMap{owner, va >> arch.PageShift}, out)
}

// firstMap is the mapping a batch's frames start their life with: once
// each, hinted at consecutive VPNs from vpn when owner is set.
type firstMap struct {
	owner *AnonOwner
	vpn   uint64
}

// allocFrameBatch is the body of both batch entries.
func (m *PhysMem) allocFrameBatch(core int, kind Kind, mapped *firstMap, out []arch.PFN) int {
	if fault.MemAllocBatch.Fire() {
		return 0
	}
	node := m.preferredNode(core)
	n := 0
	if node == m.coreNode(core) {
		n = m.pcp[core].popN(out)
	}
	if n < len(out) {
		n += m.zonelistAllocBatch(core, node, out[n:])
	}
	if n < len(out) {
		m.allocSlow(core, node, 0, func() bool {
			n += m.zonelistAllocBatch(core, node, out[n:])
			return n == len(out)
		})
	}
	m.initFrames(kind, 0, mapped, out[:n]...)
	m.checkPressure(node)
	return n
}

// AllocFrames allocates a naturally aligned contiguous block of 2^order
// frames (order 9 = 2 MiB huge page, order 18 = 1 GiB), preferring the
// placement node's zone. Ref starts at 1 on the head frame. On
// exhaustion the slow path drains the per-core order-0 caches back to
// their zones — their frames may coalesce into a block of the requested
// order — and runs direct reclaim before failing. Blocks never span
// zones, so a huge page is always node-homogeneous.
func (m *PhysMem) AllocFrames(core int, order int, kind Kind) (arch.PFN, error) {
	if order == 0 {
		return m.AllocFrame(core, kind)
	}
	if fault.MemAllocHuge.Fire() {
		return 0, fault.MemAllocHuge.Errorf(ErrOutOfMemory)
	}
	node := m.preferredNode(core)
	pfn, ok := m.zonelistAlloc(core, node, order, false)
	if !ok {
		ok = m.allocSlow(core, node, order, func() bool {
			pfn, ok = m.zonelistAlloc(core, node, order, false)
			return ok
		})
	}
	if !ok {
		// Distinguish fragmentation from exhaustion: if the zonelist
		// still holds >= 2^order free frames, they exist but could not
		// be coalesced into a block even after direct compaction.
		if m.zonelistFree(node) >= uint64(1)<<order {
			return 0, ErrFragmented
		}
		return 0, ErrOutOfMemory
	}
	m.initFrames(kind, uint32(order), nil, pfn)
	m.checkPressure(node)
	return pfn, nil
}

// initFrames starts a life of each block of 2^order frames headed at one
// of pfns, with Ref == 1. A frame arrives as Put or boot left it — PT,
// RMap and words nil, mapped nowhere (the mapping word's stale hint dies
// with the first Map), no payload published — so a word is stored only
// when it has to change; the guards read a frame nobody else holds yet.
// With mapped set, frame i starts mapped once: its owner (only if it
// changed) and then its mapping word are stored here, in the same pass,
// instead of by a Map or MapExclusive CAS after it. Ref is an
// unconditional atomic store, and the last one: the compaction scanner
// TryGets lock-free, and its CAS acquires everything written before.
func (m *PhysMem) initFrames(kind Kind, order uint32, mapped *firstMap, pfns ...arch.PFN) {
	for j, pfn := range pfns {
		d := &m.frames[pfn]
		d.Kind = kind
		if d.order.Load() != order {
			d.order.Store(order)
		}
		// Payload and NUMA telemetry of an earlier life must not leak into
		// this one. Put dropped data, so only access — lossy telemetry
		// written all through a life — is ever dirty here.
		if d.data.Load() != nil {
			d.data.Store(nil)
		}
		if d.access.Load() != 0 {
			d.access.Store(0)
		}
		if kind == KindPT {
			d.words = new([arch.PTEntries]uint64)
			d.dropSpare() // a PT page reached through the pcp fallback
		}
		for i := arch.PFN(1); i < 1<<order; i++ {
			m.frames[pfn+i].tail.Store(int64(pfn) + 1)
		}
		if mapped != nil {
			w := uint64(1)
			if o := mapped.owner; o != nil {
				if d.anonOwner.Load() != o {
					d.anonOwner.Store(o)
				}
				w |= (mapped.vpn + uint64(j)) << mapCountBits
			}
			d.mapping.Store(w)
		}
		d.Ref.Store(1)
	}
	m.kinds[kind].Add(int64(len(pfns)) << order)
}

// dropSpare releases a kept payload to the Go collector. Load-guarded
// so frames without one stay store-free.
func (d *FrameDesc) dropSpare() {
	if d.spare.Load() != nil {
		d.spare.Store(nil)
	}
}

// HeadOf resolves a frame inside a huge block to the block's head frame,
// which carries the descriptor state (refcounts, kind, data).
func (m *PhysMem) HeadOf(pfn arch.PFN) arch.PFN {
	if t := m.frames[pfn].tail.Load(); t != 0 {
		return arch.PFN(t - 1)
	}
	return pfn
}

// Get takes an additional reference on pfn.
func (m *PhysMem) Get(pfn arch.PFN) {
	if m.frames[pfn].Ref.Add(1) <= 1 {
		panic("mem: Get on free frame")
	}
}

// TryGet attempts to take a reference on pfn without assuming the frame
// is live: it fails (returning false) instead of panicking when the
// frame is free or being freed. The lock-free migration scanner uses it
// to pin candidates it discovered without holding any lock.
func (m *PhysMem) TryGet(pfn arch.PFN) bool {
	ref := &m.frames[pfn].Ref
	for {
		n := ref.Load()
		if n <= 0 {
			return false
		}
		if ref.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// GetN takes n additional references on pfn at once (huge-page splits).
func (m *PhysMem) GetN(pfn arch.PFN, n int64) {
	if m.frames[pfn].Ref.Add(n) <= n {
		panic("mem: GetN on free frame")
	}
}

// Put drops a reference on pfn; the frame is freed when the count hits 0.
func (m *PhysMem) Put(core int, pfn arch.PFN) { m.PutRun(core, pfn, 1) }

// PutRun drops one reference on each of the n frames head, head+1, …,
// head+n-1 — what n Puts do, but the kind counters move once per run,
// the core's cache is locked once per pcpBatch freed frames and what
// overflows it reaches the zone as runs. Every frame still gets its own
// reference drop, so a shared frame inside the run survives.
func (m *PhysMem) PutRun(core int, head arch.PFN, n int) {
	b := putBatch{m: m, core: core, home: m.coreNode(core)}
	for i := range arch.PFN(n) {
		b.put(head + i)
	}
	b.flush()
}

// PutList is PutRun over the frames of pfns, in order.
func (m *PhysMem) PutList(core int, pfns []arch.PFN) {
	b := putBatch{m: m, core: core, home: m.coreNode(core)}
	for _, pfn := range pfns {
		b.put(pfn)
	}
	b.flush()
}

// putBatch is the state of one PutRun or PutList call.
type putBatch struct {
	m     *PhysMem
	core  int
	home  int             // core's node, whose frames its cache takes
	kinds [numKinds]int64 // frames freed per kind, settled by flush
	n     int
	buf   [pcpBatch]arch.PFN // buf[:n]: freed frames bound for core's cache
}

// put drops one reference on pfn and, when it was the last, ends the
// frame's life. Only the descriptor words that life dirtied are stored
// to: the guards read a frame whose count just hit zero, which nobody
// else may write, and a skipped store would have written the value
// lock-free readers see anyway.
func (b *putBatch) put(pfn arch.PFN) {
	m := b.m
	d := &m.frames[pfn]
	n := d.Ref.Add(-1)
	switch {
	case n > 0:
		return
	case n < 0:
		panic("mem: Put on free frame")
	}
	order := int(d.order.Load())
	b.kinds[d.Kind] += 1 << order
	d.Kind = KindFree
	if d.PT != nil {
		d.PT = nil
	}
	if d.RMap != (RMapRef{}) {
		d.RMap = RMapRef{}
	}
	if d.words != nil {
		d.words = nil
	}
	for i := arch.PFN(1); i < 1<<order; i++ {
		m.frames[pfn+i].tail.Store(0)
	}
	z := m.zoneOf(pfn)
	// Only home-node frames enter the core's cache; off-node frames go
	// straight back to their owning zone so every pcp cache (and the
	// batches it spills) stays node-pure.
	cached := order == 0 && z == b.home
	if p := d.data.Load(); p != nil { // only touched data frames pay
		d.data.Store(nil)
		// A self-owned 4-KiB buffer rides along into the cache for the
		// next first touch to clear; the RCU-deferred free has put every
		// reader of the old bytes behind us. Anything else — a huge
		// block's buffer, a shattered block's 2-MiB head buffer or a
		// child's window into it — would pin far more than a page.
		if cached && !d.aliased && len(*p) == arch.PageSize {
			d.spare.Store(p)
		}
		d.aliased = false
	}
	if !cached {
		d.dropSpare()
		m.zones[z].buddy.free(pfn, order)
		return
	}
	if b.n == len(b.buf) {
		b.cache()
	}
	b.buf[b.n] = pfn
	b.n++
}

// cache hands buf[:n] to the core's cache and returns the batch the
// cache gives up in exchange, if any, to the home zone.
func (b *putBatch) cache() {
	if over := b.m.pcp[b.core].pushN(&b.buf, b.n); over > 0 {
		b.m.toBuddy(b.home, b.buf[:over])
	}
	b.n = 0
}

func (b *putBatch) flush() {
	if b.n > 0 {
		b.cache()
	}
	for k, n := range b.kinds {
		if n != 0 {
			b.m.kinds[k].Add(-n)
		}
	}
}

// Words returns the PTE array of a page-table frame.
func (m *PhysMem) Words(pfn arch.PFN) *[arch.PTEntries]uint64 {
	w := m.frames[pfn].words
	if w == nil {
		panic(fmt.Sprintf("mem: frame %#x is not a PT page", pfn))
	}
	return w
}

// Data returns the byte payload of a data frame, zero-filled on the
// first touch of each life of the frame. The caller must hold a
// reference and, for writes to the payload, mapping-level exclusion.
// The first touch itself needs no exclusion: one racer claims the
// buffer kept from an earlier life with an atomic swap and clears it
// while it is still private (the simulator's clear_page), the others
// make their own; all race to publish with a CAS and losers adopt the
// winner's, so every caller sees the same payload and nobody ever
// clears a buffer another core can see.
func (m *PhysMem) Data(pfn arch.PFN) []byte {
	d := &m.frames[pfn]
	if p := d.data.Load(); p != nil {
		return *p
	}
	var p *[]byte
	if d.spare.Load() != nil { // frames fresh from the buddy skip the swap
		p = d.spare.Swap(nil)
	}
	if p != nil {
		clear(*p)
	} else {
		buf := make([]byte, arch.PageSize<<d.order.Load())
		p = &buf
	}
	if d.data.CompareAndSwap(nil, p) {
		return *p
	}
	return *d.data.Load()
}

// DataPage returns the 4-KiB slice of the data payload corresponding to
// pfn, resolving huge-block members through the head frame.
func (m *PhysMem) DataPage(pfn arch.PFN) []byte {
	head := m.HeadOf(pfn)
	off := uint64(pfn-head) * arch.PageSize
	data := m.Data(head)
	return data[off : off+arch.PageSize]
}

// CopyPage allocates a fresh anonymous frame holding a copy of src's
// 4-KiB page for core — the copy half of every copy-on-write break.
func (m *PhysMem) CopyPage(core int, src arch.PFN) (arch.PFN, error) {
	dst, err := m.AllocFrame(core, KindAnon)
	if err != nil {
		return 0, err
	}
	copy(m.Data(dst), m.DataPage(src))
	return dst, nil
}

// zonelistFree sums the free frames across node's zonelist (buddy only,
// lock-free) — the "was memory actually available" probe behind
// ErrFragmented.
func (m *PhysMem) zonelistFree(node int) uint64 {
	var n uint64
	for _, z := range m.zonelists[node] {
		n += m.zones[z].buddy.freeCount()
	}
	return n
}

// NoteAccess records a translation of pfn by core for NUMA-balancing
// telemetry: a lossy per-frame streak of consecutive accesses from the
// same remote node. No-op (one atomic load) unless balancing enabled it.
func (m *PhysMem) NoteAccess(core int, pfn arch.PFN) {
	if !m.numaTrack.Load() {
		return
	}
	d := &m.frames[pfn]
	node := uint64(m.coreNode(core)) + 1
	old := d.access.Load()
	if old>>32 == node {
		d.access.Store(old + 1) // lossy: racing updates may drop counts
	} else {
		d.access.Store(node << 32)
	}
}

// accessStreak unpacks the NUMA telemetry: the accessing node and the
// length of its current access streak (node == -1 when none recorded).
func (d *FrameDesc) accessStreak() (node int, streak uint64) {
	v := d.access.Load()
	if v == 0 {
		return -1, 0
	}
	return int(v>>32) - 1, v & 0xffffffff
}

// SetNumaTracking enables or disables NoteAccess streak accounting.
func (m *PhysMem) SetNumaTracking(on bool) { m.numaTrack.Store(on) }

// FreeFrames reports the number of free frames remaining across all
// zones.
func (m *PhysMem) FreeFrames() uint64 {
	var n uint64
	for i := range m.zones {
		n += m.zones[i].buddy.freeCount()
	}
	return n + m.pcpCached()
}

func (m *PhysMem) pcpCached() uint64 {
	var n uint64
	for i := range m.pcp {
		n += uint64(m.pcp[i].len())
	}
	return n
}

// KindFrames returns the number of frames currently allocated as kind.
func (m *PhysMem) KindFrames(kind Kind) int64 { return m.kinds[kind].Load() }

// Stats summarizes physical-memory usage in bytes by kind.
type Stats struct {
	TotalBytes     uint64
	FreeBytes      uint64
	AnonBytes      uint64
	FileBytes      uint64
	PageTableBytes uint64
	KernelBytes    uint64
}

// Stats returns a usage snapshot.
func (m *PhysMem) Stats() Stats {
	return Stats{
		TotalBytes:     uint64(len(m.frames)) * arch.PageSize,
		FreeBytes:      m.FreeFrames() * arch.PageSize,
		AnonBytes:      uint64(m.kinds[KindAnon].Load()) * arch.PageSize,
		FileBytes:      uint64(m.kinds[KindFile].Load()) * arch.PageSize,
		PageTableBytes: uint64(m.kinds[KindPT].Load()) * arch.PageSize,
		KernelBytes:    uint64(m.kinds[KindKernel].Load()) * arch.PageSize,
	}
}
