// Package tlb simulates per-core translation lookaside buffers and the
// TLB-shootdown protocols CortenMM uses (§4.5): synchronous IPI
// broadcast, parallel flush with early acknowledgement (Amit et al.,
// EuroSys'20), and LATR-style lazy shootdown where unmap pushes the
// stale translations into a per-CPU buffer that every core drains on
// its timer tick (Kumar et al., ASPLOS'18).
//
// Each core's cache is a lock-free set-associative array (cache.go):
// Lookup and Insert are plain atomic loads/stores with no mutex and no
// cross-core writes. Remote invalidation is a generation bump on the
// target's per-(core, asid) epoch cell (epoch.go); cache entries are
// validated lazily against their cell on lookup by replaying the cell's
// 16-deep ring of invalidation records. The ring is the only history:
// an entry older than it misses. Shootdown initiators skip cores whose
// cells provably hold nothing for the ASID (presence filtering, the
// mm_cpumask analogue). The early-ack and LATR queues still use
// mutexes — they model interrupt mailboxes, not the access fast path —
// but their entries are applied through the same generation mechanism.
package tlb

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
	"cortenmm/internal/pt"
)

// Mode selects the shootdown protocol.
type Mode uint8

const (
	// ModeSync broadcasts IPIs and waits for every core to invalidate.
	ModeSync Mode = iota
	// ModeEarlyAck posts invalidation requests to per-core mailboxes and
	// returns without waiting; targets drain on their next TLB access.
	ModeEarlyAck
	// ModeLATR queues invalidations in the initiator's per-CPU buffer;
	// all cores sweep all buffers on timer ticks.
	ModeLATR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeEarlyAck:
		return "early-ack"
	case ModeLATR:
		return "latr"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ASID identifies an address space in TLB tags.
type ASID uint32

// Range is a half-open virtual-address range [Lo, Hi) of page-aligned
// addresses, the unit of a coalesced shootdown: unmapping 1 GiB issues
// one range invalidation instead of 256 Ki single-page ones.
type Range struct {
	Lo, Hi arch.Vaddr
}

// Invalidation is one pending shootdown request.
type Invalidation struct {
	ASID ASID
	// [Lo, Hi) is the page range to invalidate; All=true invalidates the
	// whole ASID instead.
	Lo, Hi arch.Vaddr
	All    bool
}

// coreStats are per-core counters, padded so cores never share a cache
// line; Stats() aggregates them.
type coreStats struct {
	// Every lookup bumps exactly one of hits, hugeHits and misses.
	hits       atomic.Uint64 // lookups served by the base array
	hugeHits   atomic.Uint64 // lookups served by the huge-entry array
	misses     atomic.Uint64
	shootdowns atomic.Uint64 // shootdown events this core initiated
	ipis       atomic.Uint64 // remote cores this core's sync shootdowns signalled
	filtered   atomic.Uint64 // remote cores skipped by presence filtering
	deferred   atomic.Uint64 // invalidations queued rather than applied
	applied    atomic.Uint64 // queued invalidations applied by drain/sweep
	genBumps   atomic.Uint64 // epoch-cell generation bumps issued
	evictions  atomic.Uint64 // valid entries displaced by capacity replacement
	staleDrops atomic.Uint64 // entries discarded by lazy generation checks
	hugeEvicts atomic.Uint64 // huge entries displaced by capacity replacement
	_          [32]byte
}

// coreTLB is one core's cache, epoch cells and shootdown mailboxes.
// The slot array is written only via this core's own API calls; the
// epoch cells take writes from any core.
type coreTLB struct {
	slots     []slot      // nSets × nWays 4-KiB cache entries
	hugeSlots []slot      // hugeSets × nWays huge-leaf entries, tagged by span base
	cells     []epochCell // asidCells generation cells
	// hugeUsed is set by the core's first huge fill; until then nothing
	// probes hugeSlots.
	hugeUsed atomic.Bool
	// victim and hugeVictim rotate the way evicted from a set whose ways
	// are all referenced.
	victim     atomic.Uint32
	hugeVictim atomic.Uint32

	// inbox holds early-ack invalidation requests posted by other
	// cores; the Lookup fast path skips it behind its count.
	inbox mailbox
	// latr is this core's LATR buffer of invalidations it initiated. Its
	// count covers entries a sweeper has taken and is still applying.
	latr mailbox
	// latrSweep is held by the one sweeper of this buffer from taking
	// the entries until they are applied, so a second sweeper (a Tick
	// on another core, Quiesce) waits for them instead of passing by.
	latrSweep sync.Mutex

	stats coreStats
}

func (c *coreTLB) cell(asid ASID) *epochCell {
	return &c.cells[uint32(asid)&(asidCells-1)]
}

func (c *coreTLB) set(asid ASID, va arch.Vaddr) []slot {
	i := setIndex(asid, va) * nWays
	return c.slots[i : i+nWays : i+nWays]
}

func (c *coreTLB) hugeSet(asid ASID, base arch.Vaddr, level int) []slot {
	i := hugeSetIndex(asid, base, level) * nWays
	return c.hugeSlots[i : i+nWays : i+nWays]
}

// nodeShootStats count shootdown traffic per target NUMA node, padded
// so nodes never share a cache line.
type nodeShootStats struct {
	deliveries  atomic.Uint64 // per-core bumps/posts delivered to this node's cores
	filtered    atomic.Uint64 // this node's cores skipped by presence filtering
	clusterIPIs atomic.Uint64 // node-granular broadcasts with >=1 delivery here
	_           [40]byte
}

// Machine is the TLB hardware of the whole simulated machine.
type Machine struct {
	mode  Mode
	cores []coreTLB

	// nodeOf maps cores to NUMA nodes; nodeCores is the inverse.
	// Shootdown fan-out walks cores node by node (initiator's node
	// first), modelling cluster-mode IPI delivery: one logical IPI per
	// node that has at least one non-filtered target, instead of one
	// point-to-point interrupt per core.
	nodeOf    []int
	nodeCores [][]int
	nodeStats []nodeShootStats

	// fullFlushes counts machine-wide FlushAllASIDs events (ASID
	// generation rollovers).
	fullFlushes atomic.Uint64
}

// NewMachine creates TLBs for the given core count and protocol on a
// single NUMA node.
func NewMachine(cores int, mode Mode) *Machine {
	return NewMachineNUMA(mode, make([]int, cores))
}

// NewMachineNUMA creates TLBs for len(nodeOf) cores, where nodeOf[c] is
// core c's NUMA node; the machine keeps the slice. The node map only
// shapes shootdown fan-out order and per-node accounting — cache
// contents and the staleness contract are identical on any topology.
func NewMachineNUMA(mode Mode, nodeOf []int) *Machine {
	nodes := slices.Max(nodeOf) + 1
	m := &Machine{
		mode:      mode,
		cores:     make([]coreTLB, len(nodeOf)),
		nodeOf:    nodeOf,
		nodeCores: make([][]int, nodes),
		nodeStats: make([]nodeShootStats, nodes),
	}
	for c, n := range nodeOf {
		m.nodeCores[n] = append(m.nodeCores[n], c)
	}
	for i := range m.cores {
		// One allocation for both arrays: a large object starts on a page,
		// and the base array's 80 KiB keep the huge one on a cache line.
		// (A small array of slots, which hold a pointer, would start 8
		// bytes into one, behind the allocator's type header.)
		slots := make([]slot, (nSets+hugeSets)*nWays)
		m.cores[i].slots = slots[: nSets*nWays : nSets*nWays]
		m.cores[i].hugeSlots = slots[nSets*nWays:]
		m.cores[i].cells = make([]epochCell, asidCells)
	}
	return m
}

// visitRemoteByNode visits every core except the initiator in
// node-batched order: the initiator's own node first (cheapest
// interrupts), then the remaining nodes by ascending ID with wrap.
// visit reports whether the core was actually signalled (false =
// presence-filtered); every node with at least one delivery costs one
// cluster IPI. Per-node delivery/filter/cluster counters accrue here so
// each protocol's fan-out loop stays a one-liner.
func (m *Machine) visitRemoteByNode(initiator int, visit func(j int) bool) {
	home := m.nodeOf[initiator]
	nn := len(m.nodeCores)
	for k := 0; k < nn; k++ {
		n := home + k
		if n >= nn {
			n -= nn
		}
		ns := &m.nodeStats[n]
		delivered := false
		for _, j := range m.nodeCores[n] {
			if j == initiator {
				continue
			}
			if visit(j) {
				delivered = true
				ns.deliveries.Add(1)
			} else {
				ns.filtered.Add(1)
			}
		}
		if delivered {
			ns.clusterIPIs.Add(1)
		}
	}
}

// Lookup consults core's TLB for (asid, va). Early-ack mailboxes are
// drained first, modelling the interrupt arriving before the access.
// The fast path is mutex-free: four tag loads in one set, then for the
// matching way a seqlock snapshot, one generation load and one counter;
// entries whose generation lags are validated against the epoch cell's
// ring and either re-stamped or discarded. A base-array hit carries the
// page its fill stored; a huge hit carries none.
func (m *Machine) Lookup(core int, asid ASID, va arch.Vaddr) (pt.Translation, bool) {
	c := &m.cores[core]
	if m.mode == ModeEarlyAck && c.inbox.n.Load() > 0 {
		m.drainInbox(c)
	}
	cell := c.cell(asid)
	if trw, page, ok := c.probe(c.set(asid, va), cell, asid, makeTag(asid, va, 0), va, va+arch.PageSize); ok {
		c.stats.hits.Add(1)
		tr := unpackTr(trw)
		tr.Page = page
		return tr, true
	}
	if c.hugeUsed.Load() {
		// A hit is rebased to the 4-KiB page the caller asked about, so
		// callers see ordinary page translations.
		for _, level := range hugeLevels {
			span := arch.Vaddr(arch.SpanBytes(level))
			base := va &^ (span - 1)
			if trw, _, ok := c.probe(c.hugeSet(asid, base, level), cell, asid, makeTag(asid, base, level), base, base+span); ok {
				c.stats.hugeHits.Add(1)
				tr := unpackTr(trw)
				tr.PFN += arch.PFN(uint64(va-base) / arch.PageSize)
				return tr, true
			}
		}
	}
	c.stats.misses.Add(1)
	return pt.Translation{}, false
}

// probe looks for the entry tagged want in one set and returns its
// translation word and page. [lo, hi) is what the entry covers:
// generation validation uses the whole span, so any overlapping
// invalidation — even a single 4-KiB record inside a huge leaf — kills
// the entry. A hit marks the way referenced, by a CAS only when the bit
// is clear.
func (c *coreTLB) probe(set []slot, cell *epochCell, asid ASID, want uint64, lo, hi arch.Vaddr) (uint64, *[arch.PageSize]byte, bool) {
	for i := range set {
		s := &set[i]
		if s.tag.Load()&^tagRef != want {
			continue
		}
		tag, gen, trw, page, seq, ok := s.read(want)
		if !ok || gen != cell.gen.Load() && !c.revalidate(s, cell, asid, lo, hi, gen, seq) {
			continue
		}
		if tag&tagRef == 0 {
			s.tag.CompareAndSwap(tag, tag|tagRef)
		}
		return trw, page, true
	}
	return 0, nil, false
}

// revalidate replays the invalidations cell recorded since generation
// gen against the entry snapshotted from s at version seq: a live entry
// is re-stamped, a dead one cleared.
func (c *coreTLB) revalidate(s *slot, cell *epochCell, asid ASID, lo, hi arch.Vaddr, gen, seq uint64) bool {
	cur, live := cell.validate(asid, lo, hi, gen)
	if !live {
		c.stats.staleDrops.Add(1)
		s.clear(seq)
		return false
	}
	s.refreshGen(seq, cur)
	return true
}

// Insert caches a translation in core's TLB: FillBegin and InsertAt
// back to back, for callers that install a translation they did not
// just read out of a live page table. An access path that walks must
// put FillBegin before its walk.
func (m *Machine) Insert(core int, asid ASID, va arch.Vaddr, tr pt.Translation) {
	m.InsertAt(core, asid, va, tr, m.FillBegin(core, asid))
}

// FillBegin opens a TLB fill on core for asid and must be called
// *before* the page-table walk whose result InsertAt will publish. It
// publishes the core's presence in the epoch cell — so a shootdown that
// starts afterwards cannot be presence-filtered away from this core
// (see maybePresent) — and returns the cell generation the entry will
// be stamped with. A shootdown that lands between the walk and InsertAt
// bumps the cell past that generation, so the next Lookup replays it
// against the entry instead of trusting a translation that was read
// before the PTE died. One that checked presence before FillBegin had
// already cleared its PTEs, so the walk cannot see them.
func (m *Machine) FillBegin(core int, asid ASID) uint64 {
	cell := m.cores[core].cell(asid)
	g := cell.gen.Load()
	if l := cell.lastIns.Load(); g+1 > l {
		cell.lastIns.Store(g + 1)
	}
	return g
}

// InsertAt publishes the translation a walk found, stamped with the
// generation FillBegin returned before that walk. Mutex-free: the
// victim way is claimed by a per-slot CAS, and a lost race simply drops
// the fill (the next access re-walks). Huge leaves (tr.Level >= 2) go
// to the span-indexed huge array: callers pass the 4-KiB page they
// translated with the page-adjusted PFN (pt.WalkAccess's contract), and
// InsertAt normalizes both back to the span base so one fill makes
// every offset in the leaf hit. A 4-KiB entry keeps tr.Page; a huge one
// drops it, since one page cannot stand for the whole span.
func (m *Machine) InsertAt(core int, asid ASID, va arch.Vaddr, tr pt.Translation, g uint64) {
	c := &m.cores[core]
	if tr.Level >= 2 {
		span := arch.Vaddr(arch.SpanBytes(tr.Level))
		base := va &^ (span - 1)
		tr.PFN -= arch.PFN(uint64(va-base) / arch.PageSize)
		if !c.hugeUsed.Load() {
			c.hugeUsed.Store(true)
		}
		set := c.hugeSet(asid, base, tr.Level)
		if c.fillSet(set, &c.hugeVictim, makeTag(asid, base, tr.Level), g, packTr(tr), nil) {
			c.stats.hugeEvicts.Add(1)
		}
		return
	}
	if c.fillSet(c.set(asid, va), &c.victim, makeTag(asid, va, 0), g, packTr(tr), tr.Page) {
		c.stats.evictions.Add(1)
	}
}

// fillSet publishes an entry into one set, replacing in order of
// preference the entry itself (re-fill), an empty way, a
// generation-stale way, then a way no hit has referenced since the set
// last aged (not-recently-used). When every way is referenced the
// rotation picks the victim and the other ways age. Reports whether a
// capacity eviction happened; a fill dropped to a racing writer or for
// want of a tag reports false. The choice reads tag and generation
// words outside the seqlock: a torn view can only pick a worse victim,
// and a TLB may drop any entry at any time.
func (c *coreTLB) fillSet(set []slot, victimCtr *atomic.Uint32, tag, g, trw uint64, page *[arch.PageSize]byte) bool {
	if tag == noTag {
		return false
	}
	const same, empty, stale, unreferenced = 4, 3, 2, 1
	victim, score := 0, 0
	for i := range set {
		s := &set[i]
		t := s.tag.Load()
		switch {
		case t&^tagRef == tag:
			victim, score = i, same
		case t == 0:
			if score < empty {
				victim, score = i, empty
			}
		case score < stale && s.gen.Load() != c.cell(tagASID(t)).gen.Load():
			victim, score = i, stale
		case score < unreferenced && t&tagRef == 0:
			victim, score = i, unreferenced
		}
		if score == same {
			break
		}
	}
	if score == 0 {
		victim = int(victimCtr.Add(1)) % len(set)
		for i := range set {
			if t := set[i].tag.Load(); i != victim && t&tagRef != 0 {
				set[i].tag.CompareAndSwap(t, t&^tagRef)
			}
		}
	}
	s := &set[victim]
	seq := s.seq.Load()
	return seq&1 == 0 && s.write(seq, tag, g, trw, page) && score <= unreferenced
}

// FlushLocal removes (asid, va) from core's own TLB, including any
// huge entry whose span contains va.
func (m *Machine) FlushLocal(core int, asid ASID, va arch.Vaddr) {
	c := &m.cores[core]
	c.clearSlot(asid, va)
	c.clearHugeSpans(asid, va, va+arch.PageSize)
}

// FlushAllASIDs invalidates every translation of every ASID on every
// core — the ASID generation-rollover flush. One full-ASID bump per
// epoch cell suffices: validate's allGen early-out rejects every fill
// published at or before the bump regardless of its ASID, and the
// recAll record resets each cell's presence filter. Any core may issue
// the bumps, so the caller needs no core identity. Invalidations still
// queued in early-ack inboxes or LATR buffers are left in place:
// applying one later only re-kills entries conservatively, which is
// always legal.
func (m *Machine) FlushAllASIDs() {
	m.fullFlushes.Add(1)
	for i := range m.cores {
		for j := range m.cores[i].cells {
			m.cores[i].cells[j].bump(0, 0, arch.MaxVaddr, true)
		}
	}
}

// preciseLimit is the widest local invalidation, in pages, that clears
// slots one by one; wider ranges become a single generation bump. Either
// form is legal (a lookup may always miss), so the cutover is only a
// cost choice: a precise clear probes one set per page whether or not
// anything was cached, a bump taxes every later lookup of an entry
// filled before it with a ring replay. Four covers the 2–4-page ranges
// of fault-path churn; the other ranges the workloads send span
// thousands of pages, which one bump serves at one record (DESIGN.md
// §8 has the counts).
const preciseLimit = 4

// invalidateLocal applies one invalidation to this core's own cache:
// precisely for ranges within preciseLimit, or as a generation bump on
// its own epoch cell for wider ranges and full-ASID flushes, leaving
// dead entries for lookups to discard lazily. The precise path also
// clears any huge entry overlapping the range; the bump path covers
// huge entries through span-aware ring replay.
func (c *coreTLB) invalidateLocal(inv Invalidation) {
	if !inv.All && uint64(inv.Hi-inv.Lo)/arch.PageSize <= preciseLimit {
		for va := inv.Lo; va < inv.Hi; va += arch.PageSize {
			c.clearSlot(inv.ASID, va)
		}
		c.clearHugeSpans(inv.ASID, inv.Lo, inv.Hi)
		return
	}
	c.cell(inv.ASID).bump(inv.ASID, inv.Lo, inv.Hi, inv.All)
	c.stats.genBumps.Add(1)
}

// clearTagged empties the slot of set holding the entry tagged want, if
// any.
func clearTagged(set []slot, want uint64) {
	for i := range set {
		s := &set[i]
		if s.tag.Load()&^tagRef != want {
			continue
		}
		if _, _, _, _, seq, ok := s.read(want); ok {
			s.clear(seq)
		}
	}
}

// clearSlot empties the slot caching (asid, va), if any.
func (c *coreTLB) clearSlot(asid ASID, va arch.Vaddr) {
	clearTagged(c.set(asid, va), makeTag(asid, va, 0))
}

// clearHugeSpans empties every huge entry of asid whose span overlaps
// [lo, hi). Precise local invalidation must reach the huge array too:
// after a huge leaf is split into a leaf table (translations unchanged,
// so the split itself needs no flush), a later small unmap inside the
// span takes the precise path, and missing the huge slot would leave a
// stale whole-span translation behind.
func (c *coreTLB) clearHugeSpans(asid ASID, lo, hi arch.Vaddr) {
	if !c.hugeUsed.Load() {
		return
	}
	for _, level := range hugeLevels {
		span := arch.Vaddr(arch.SpanBytes(level))
		for base := lo &^ (span - 1); base < hi; base += span {
			clearTagged(c.hugeSet(asid, base, level), makeTag(asid, base, level))
		}
	}
}

// maxFanRecs bounds how many ring records one shootdown spends on a
// remote cell; denser requests collapse to their envelope (a safe
// over-invalidation that preserves the ring's recent history).
const maxFanRecs = 4

// bumpRemote records the invalidation of ranges (of the whole ASID when
// all is set) on one remote cell.
func bumpRemote(cell *epochCell, asid ASID, ranges []Range, all bool, st *coreStats) {
	if len(ranges) <= maxFanRecs {
		for _, r := range ranges {
			cell.bump(asid, r.Lo, r.Hi, all)
		}
		st.genBumps.Add(uint64(len(ranges)))
		return
	}
	lo, hi := ranges[0].Lo, ranges[0].Hi
	for _, r := range ranges[1:] {
		if r.Lo < lo {
			lo = r.Lo
		}
		if r.Hi > hi {
			hi = r.Hi
		}
	}
	cell.bump(asid, lo, hi, all)
	st.genBumps.Add(1)
}

// mailbox is a mutex-guarded queue of invalidations — an early-ack
// inbox or a LATR buffer. The spare buffer makes steady-state posting
// and draining allocation-free. n counts the entries queued plus those
// taken and not yet reported done: it reaches zero only when none is
// outstanding, so a reader that loads zero may skip the mutex.
type mailbox struct {
	mu    sync.Mutex
	buf   []Invalidation
	spare []Invalidation
	n     atomic.Int64
}

// post queues one invalidation per range.
func (b *mailbox) post(asid ASID, ranges []Range, all bool) {
	b.mu.Lock()
	for _, r := range ranges {
		b.buf = append(b.buf, Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi, All: all})
	}
	b.n.Add(int64(len(ranges)))
	b.mu.Unlock()
}

// take empties the queue into the caller's hands; the caller applies
// the entries and then passes them to done.
func (b *mailbox) take() []Invalidation {
	b.mu.Lock()
	pending := b.buf
	b.buf, b.spare = b.spare[:0], nil
	b.mu.Unlock()
	return pending
}

// done marks entries returned by take as applied and recycles their
// buffer.
func (b *mailbox) done(pending []Invalidation) {
	b.n.Add(-int64(len(pending)))
	b.mu.Lock()
	if b.spare == nil {
		b.spare = pending[:0]
	}
	b.mu.Unlock()
}

// Shootdown invalidates the given VA ranges of asid on every core.
// initiator's own TLB is always flushed before return; remote cores
// follow the configured protocol unless sync is set, which delivers to
// them before return whatever the mode. Permission tightenings (COW on
// fork, mprotect) and frees whose frames are reused at once must not be
// deferred — LATR's laziness applies only to unmap (§4.5) — so they
// pass sync.
func (m *Machine) Shootdown(initiator int, asid ASID, ranges []Range, sync bool) {
	m.deliver(initiator, asid, ranges, false, sync)
}

// ShootdownRange is a lazy Shootdown of the single range [lo, hi) — the
// common case of a contiguous unmap, without the slice literal.
func (m *Machine) ShootdownRange(initiator int, asid ASID, lo, hi arch.Vaddr) {
	r := [1]Range{{Lo: lo, Hi: hi}}
	m.deliver(initiator, asid, r[:], false, false)
}

// ShootdownAll invalidates every entry of asid on every core (used for
// fork and whole-space rewrites); sync as for Shootdown.
func (m *Machine) ShootdownAll(initiator int, asid ASID, sync bool) {
	r := [1]Range{{Hi: arch.MaxVaddr}}
	m.deliver(initiator, asid, r[:], true, sync)
}

// deliver is the one way an invalidation leaves its initiator: the
// ranges (with all set, the single full range standing for the whole
// ASID) die in the initiator's own cache at once, and the mode decides
// only how they reach the other cores. No intermediate request slice is
// built: the sync arm bumps target cells directly and the queueing arms
// append straight into the persistent mailbox buffers.
func (m *Machine) deliver(initiator int, asid ASID, ranges []Range, all, sync bool) {
	c := &m.cores[initiator]
	c.stats.shootdowns.Add(1)
	for _, r := range ranges {
		c.invalidateLocal(Invalidation{ASID: asid, Lo: r.Lo, Hi: r.Hi, All: all})
	}
	fault.TLBShootdownDelay.Pause()
	mode := m.mode
	if sync {
		mode = ModeSync
	}
	switch mode {
	case ModeSync:
		ipis, filtered := m.fanNow(c, initiator, asid, ranges, all)
		c.stats.ipis.Add(ipis)
		c.stats.filtered.Add(filtered)
	case ModeEarlyAck:
		m.visitRemoteByNode(initiator, func(j int) bool {
			t := &m.cores[j]
			if !t.cell(asid).maybePresent() {
				c.stats.filtered.Add(1)
				return false
			}
			t.inbox.post(asid, ranges, all)
			c.stats.deferred.Add(uint64(len(ranges)))
			return true
		})
	case ModeLATR:
		c.latr.post(asid, ranges, all)
		c.stats.deferred.Add(uint64(len(ranges)))
	}
}

// fanNow bumps the epoch cell of every remote core that may hold asid,
// on behalf of core from, and reports how many cores it reached and how
// many presence filtering let it skip.
func (m *Machine) fanNow(c *coreTLB, from int, asid ASID, ranges []Range, all bool) (reached, filtered uint64) {
	m.visitRemoteByNode(from, func(j int) bool {
		cell := m.cores[j].cell(asid)
		if !cell.maybePresent() {
			filtered++
			return false
		}
		reached++
		bumpRemote(cell, asid, ranges, all, &c.stats)
		return true
	})
	return reached, filtered
}

// drainInbox applies this core's queued early-ack invalidations.
func (m *Machine) drainInbox(c *coreTLB) {
	pending := c.inbox.take()
	for _, inv := range pending {
		c.invalidateLocal(inv)
	}
	c.stats.applied.Add(uint64(len(pending)))
	c.inbox.done(pending)
}

// Tick is the core's timer interrupt: under LATR it sweeps every core's
// buffer; the first sweeper applies each entry on behalf of everyone —
// its own cache precisely, every other core via a generation bump on
// that core's epoch cell — matching LATR's bounded staleness of one
// tick period. When Tick returns, every invalidation queued on any core
// before the call has been applied, whether by this sweeper or by one
// that was already under way.
func (m *Machine) Tick(core int) {
	c := &m.cores[core]
	if m.mode != ModeLATR {
		if c.inbox.n.Load() > 0 {
			m.drainInbox(c)
		}
		return
	}
	for i := range m.cores {
		src := &m.cores[i]
		if src.latr.n.Load() == 0 {
			continue
		}
		// Spin rather than park: a sweep lasts about a microsecond, a
		// parked goroutine's wake-up several — blocking here cost the
		// two-thread churn ~19 %.
		for spin := 0; !src.latrSweep.TryLock(); spin++ {
			if spin > 64 {
				runtime.Gosched()
			}
		}
		pending := src.latr.take()
		for _, inv := range pending {
			c.invalidateLocal(inv)
			r := [1]Range{{Lo: inv.Lo, Hi: inv.Hi}}
			m.fanNow(c, core, inv.ASID, r[:], inv.All)
		}
		c.stats.applied.Add(uint64(len(pending)))
		src.latr.done(pending)
		src.latrSweep.Unlock()
	}
}

// PendingInvalidations reports queued-but-unapplied invalidations
// (early-ack inboxes plus LATR buffers) for testing the protocols'
// staleness bounds.
func (m *Machine) PendingInvalidations() int {
	n := int64(0)
	for i := range m.cores {
		n += m.cores[i].inbox.n.Load() + m.cores[i].latr.n.Load()
	}
	return int(n)
}

// Stats is a snapshot of TLB activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Shootdowns uint64 // shootdown events initiated
	IPIs       uint64 // remote cores signalled synchronously
	Filtered   uint64 // remote cores skipped by ASID presence filtering
	Deferred   uint64 // invalidations queued rather than applied
	Applied    uint64 // queued invalidations applied by drain/sweep
	GenBumps   uint64 // epoch-cell generation bumps
	Evictions  uint64 // capacity evictions of valid entries
	StaleDrops uint64 // entries lazily discarded by generation checks
	// FullFlushes counts machine-wide FlushAllASIDs events (generation
	// rollovers of the ASID allocator).
	FullFlushes uint64
	HugeHits    uint64 // lookups served by the huge-entry array
	HugeEvicts  uint64 // huge entries displaced by capacity replacement
	// ClusterIPIs counts node-granular IPI broadcasts: one per target
	// node with at least one non-filtered core per fan-out event. On a
	// single node this equals the number of fan-out events that
	// signalled anyone.
	ClusterIPIs uint64
}

// HitRate is Hits/Lookups, 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Stats returns cumulative counters aggregated over all cores.
func (m *Machine) Stats() Stats {
	var out Stats
	for i := range m.cores {
		st := &m.cores[i].stats
		huge := st.hugeHits.Load()
		hits := st.hits.Load() + huge
		out.Hits += hits
		out.Lookups += hits + st.misses.Load()
		out.Shootdowns += st.shootdowns.Load()
		out.IPIs += st.ipis.Load()
		out.Filtered += st.filtered.Load()
		out.Deferred += st.deferred.Load()
		out.Applied += st.applied.Load()
		out.GenBumps += st.genBumps.Load()
		out.Evictions += st.evictions.Load()
		out.StaleDrops += st.staleDrops.Load()
		out.HugeHits += huge
		out.HugeEvicts += st.hugeEvicts.Load()
	}
	for n := range m.nodeStats {
		out.ClusterIPIs += m.nodeStats[n].clusterIPIs.Load()
	}
	out.FullFlushes = m.fullFlushes.Load()
	return out
}

// NodeShootdownStats is one NUMA node's view of inbound shootdown
// traffic.
type NodeShootdownStats struct {
	Node int
	// Deliveries counts per-core invalidation deliveries (generation
	// bumps or mailbox posts) to this node's cores.
	Deliveries uint64
	// Filtered counts this node's cores skipped by presence filtering.
	Filtered uint64
	// ClusterIPIs counts node-granular broadcasts that reached this
	// node (>=1 delivery).
	ClusterIPIs uint64
}

// NodeStats snapshots per-node shootdown fan-out counters.
func (m *Machine) NodeStats() []NodeShootdownStats {
	out := make([]NodeShootdownStats, len(m.nodeStats))
	for n := range m.nodeStats {
		out[n] = NodeShootdownStats{
			Node:        n,
			Deliveries:  m.nodeStats[n].deliveries.Load(),
			Filtered:    m.nodeStats[n].filtered.Load(),
			ClusterIPIs: m.nodeStats[n].clusterIPIs.Load(),
		}
	}
	return out
}
