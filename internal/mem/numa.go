package mem

import (
	"slices"
	"sync/atomic"

	"cortenmm/internal/arch"
)

// This file is the NUMA side of the physical allocator: physical memory
// is sharded into one zone per node, each with its own buddy, free
// counter and low/min watermarks. Cores allocate node-locally by
// default (first touch); when the preferred zone is exhausted the
// allocation walks that node's zonelist — nearest zones first — exactly
// like Linux's fallback order. The per-core pcp caches hold only
// home-node frames, so the fast path never leaks remote frames into a
// core's local pool.

// zoneAlign aligns zone boundaries to 2-MiB huge-page blocks (512
// frames) whenever the machine is big enough, so order-9 allocations
// stay naturally aligned in absolute PFNs too.
const zoneAlign = 512

// zone is one NUMA node's shard of physical memory: the PFN range
// [base, limit), its buddy allocator and its reclaim watermarks.
type zone struct {
	node  int
	base  arch.PFN
	limit arch.PFN // one past the last frame
	buddy buddy
	// lowWater/minWater are this zone's share of the global watermarks.
	lowWater atomic.Uint64
	minWater atomic.Uint64
}

// frames returns the zone's total frame count.
func (z *zone) frames() uint64 { return uint64(z.limit - z.base) }

// NewPhysMemNUMA creates a physical memory of nframes 4-KiB frames
// serving len(coreNode) CPUs, where coreNode[c] is core c's NUMA node.
// It has max(coreNode)+1 zones of equal size; fewer than two frames per
// zone is a programming error. Frame 0 is reserved (a NULL frame), as
// on real hardware.
func NewPhysMemNUMA(nframes int, coreNode []int) *PhysMem {
	nodes := slices.Max(coreNode) + 1
	// Equal shards, aligned to huge-page blocks when the machine is big
	// enough.
	size := nframes / nodes
	if size < 2 {
		panic("mem: need at least 2 frames per node")
	}
	if size >= 2*zoneAlign {
		size &^= zoneAlign - 1
	}
	m := &PhysMem{
		frames:     make([]FrameDesc, nframes),
		pcp:        make([]pcpCache, len(coreNode)),
		zones:      make([]zone, nodes),
		zoneSize:   size,
		coreNodes:  coreNode,
		zonelists:  make([][]int, nodes),
		allocStats: make([]nodeAllocCounters, nodes),
		swap:       newBlockDev(),
	}
	m.pages.init(len(coreNode) * pcpHigh)
	m.tables.init(len(coreNode) * pcpHigh)
	for n := range m.zones {
		z := &m.zones[n]
		z.node = n
		z.base = arch.PFN(n * size)
		z.limit = arch.PFN((n + 1) * size)
		if n == nodes-1 {
			z.limit = arch.PFN(nframes) // last zone absorbs the remainder
		}
		z.buddy.init(int(z.base), int(z.limit-z.base), n == 0)
		// The fallback walk order: the home zone, then the others one
		// hop at a time along a linear interconnect, the lower ID first
		// on a tie — as Linux orders zonelists by node distance.
		list := []int{n}
		for hop := 1; len(list) < nodes; hop++ {
			for _, o := range [2]int{n - hop, n + hop} {
				if o >= 0 && o < nodes {
					list = append(list, o)
				}
			}
		}
		m.zonelists[n] = list
	}
	// Static node tags on every descriptor; Audit cross-checks them
	// against the owning zone.
	for pfn := range m.frames {
		m.frames[pfn].Node = int32(m.zoneOf(arch.PFN(pfn)))
	}
	return m
}

// Zonelist returns a copy of node's fallback walk order (the node
// itself first).
func (m *PhysMem) Zonelist(node int) []int {
	return append([]int(nil), m.zonelists[node]...)
}

// nodeAllocCounters track allocation locality per requesting node,
// padded so nodes never share a cache line.
type nodeAllocCounters struct {
	local  atomic.Uint64 // frames obtained from the requester's home zone
	remote atomic.Uint64 // frames spilled to (or forced onto) other zones
	_      [48]byte
}

// Nodes returns the number of NUMA zones.
func (m *PhysMem) Nodes() int { return len(m.zones) }

// zoneOf maps a frame to its owning zone index.
func (m *PhysMem) zoneOf(pfn arch.PFN) int {
	if len(m.zones) == 1 {
		return 0
	}
	z := int(pfn) / m.zoneSize
	if z >= len(m.zones) {
		z = len(m.zones) - 1
	}
	return z
}

// FrameNode returns the NUMA node owning pfn.
func (m *PhysMem) FrameNode(pfn arch.PFN) int { return m.zoneOf(pfn) }

// coreNode returns a core's home node.
func (m *PhysMem) coreNode(core int) int {
	if core < 0 || core >= len(m.coreNodes) {
		return 0
	}
	return m.coreNodes[core]
}

// AllocPolicy picks a preferred placement node for an allocating core
// (return a negative node to fall back to the core's home node). The
// numa benchmarks use it to force interleaved or remote placement; the
// default (nil) is first-touch/local.
type AllocPolicy func(core int) int

// SetAllocPolicy installs the placement policy (nil restores
// first-touch/local).
func (m *PhysMem) SetAllocPolicy(p AllocPolicy) {
	if p == nil {
		m.policy.Store(nil)
		return
	}
	m.policy.Store(&p)
}

// preferredNode resolves the placement node for an allocation by core.
func (m *PhysMem) preferredNode(core int) int {
	if pp := m.policy.Load(); pp != nil {
		if n := (*pp)(core); n >= 0 && n < len(m.zones) {
			return n
		}
	}
	return m.coreNode(core)
}

// account records where frames handed out to core actually came from.
func (m *PhysMem) account(core, zoneIdx, n int) {
	st := &m.allocStats[m.coreNode(core)]
	if zoneIdx == m.coreNode(core) {
		st.local.Add(uint64(n))
	} else {
		st.remote.Add(uint64(n))
	}
}

// zonelistAlloc walks node's zonelist for one block of 2^order frames,
// taken from the high end of each zone when high is set — the placement
// policy for unmovable kinds (see buddy.allocHigh).
func (m *PhysMem) zonelistAlloc(core, node, order int, high bool) (arch.PFN, bool) {
	alloc := (*buddy).alloc
	if high {
		alloc = (*buddy).allocHigh
	}
	for _, zi := range m.zonelists[node] {
		if pfn, ok := alloc(&m.zones[zi].buddy, order); ok {
			m.account(core, zi, 1<<order)
			return pfn, true
		}
	}
	return 0, false
}

// zonelistAllocBatch walks node's zonelist filling out with order-0
// frames, one buddy lock acquisition per visited zone.
func (m *PhysMem) zonelistAllocBatch(core, node int, out []arch.PFN) int {
	n := 0
	for _, zi := range m.zonelists[node] {
		if n == len(out) {
			break
		}
		got := m.zones[zi].buddy.allocBatch(out[n:])
		if got > 0 {
			m.account(core, zi, got)
			n += got
		}
	}
	return n
}

// NodeFreeFrames reports the free frames on one node (zone buddy plus
// the pcp caches of the node's cores).
func (m *PhysMem) NodeFreeFrames(node int) uint64 {
	n := m.zones[node].buddy.freeCount()
	for c := range m.pcp {
		if m.coreNode(c) == node {
			n += uint64(m.pcp[c].len())
		}
	}
	return n
}

// NodeWatermarks returns one zone's (low, min) watermarks in frames.
func (m *PhysMem) NodeWatermarks(node int) (low, min uint64) {
	return m.zones[node].lowWater.Load(), m.zones[node].minWater.Load()
}

// NodeAllocStats is one node's allocation-locality snapshot.
type NodeAllocStats struct {
	Node int
	// Local/Remote count frames requested by this node's cores that
	// were served from the home zone vs any other zone.
	Local, Remote uint64
	// Free is the node's current free-frame count (buddy + local pcp).
	Free uint64
}

// LocalFraction is Local/(Local+Remote), 1 when idle.
func (s NodeAllocStats) LocalFraction() float64 {
	if s.Local+s.Remote == 0 {
		return 1
	}
	return float64(s.Local) / float64(s.Local+s.Remote)
}

// NodeStats snapshots per-node allocation locality and headroom.
func (m *PhysMem) NodeStats() []NodeAllocStats {
	out := make([]NodeAllocStats, len(m.zones))
	for n := range m.zones {
		out[n] = NodeAllocStats{
			Node:   n,
			Local:  m.allocStats[n].local.Load(),
			Remote: m.allocStats[n].remote.Load(),
			Free:   m.NodeFreeFrames(n),
		}
	}
	return out
}
