package mem

import (
	"sort"
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
// sharded into nodes zones, serving cores CPUs whose home nodes are
// given by coreNode (coreNode[c] is core c's NUMA node; nil defaults to
// contiguous cluster blocks). Frame 0 is reserved (a NULL frame), as on
// real hardware. Nodes that cannot get at least two frames collapse the
// machine to fewer zones.
func NewPhysMemNUMA(nframes, cores, nodes int, coreNode []int) *PhysMem {
	if nframes < 2 {
		panic("mem: need at least 2 frames")
	}
	if nodes < 1 {
		nodes = 1
	}
	// Equal shards, aligned to huge-page blocks when the machine is big
	// enough; degenerate splits collapse to fewer zones.
	var size int
	for {
		size = nframes / nodes
		if size >= 2*zoneAlign {
			size &^= zoneAlign - 1
		}
		if size >= 2 || nodes == 1 {
			break
		}
		nodes--
	}
	if coreNode == nil {
		coreNode = make([]int, cores)
		per := (cores + nodes - 1) / nodes
		for c := range coreNode {
			coreNode[c] = c / per
		}
	}
	m := &PhysMem{
		frames:    make([]FrameDesc, nframes),
		pcp:       make([]pcpCache, cores),
		zones:     make([]zone, nodes),
		zoneSize:  size,
		coreNodes: append([]int(nil), coreNode...),
	}
	for n := range m.zones {
		z := &m.zones[n]
		z.node = n
		z.base = arch.PFN(n * size)
		z.limit = arch.PFN((n + 1) * size)
		if n == nodes-1 {
			z.limit = arch.PFN(nframes) // last zone absorbs the remainder
		}
		z.buddy.init(int(z.base), int(z.limit-z.base), n == 0)
	}
	// Static node tags on every descriptor; Audit cross-checks them
	// against the owning zone.
	for pfn := range m.frames {
		m.frames[pfn].Node = int32(m.zoneOf(arch.PFN(pfn)))
	}
	// Zonelists are derived from the node-distance table: local zone
	// first, then the others by increasing distance (ties toward lower
	// node IDs) — the fallback walk order. The default table models a
	// flat linear interconnect, which reproduces the classic ID-order
	// fallback; SetDistanceTable installs measured topologies.
	m.distance = DefaultDistanceTable(nodes)
	m.rebuildZonelists()
	m.allocStats = make([]nodeAllocCounters, nodes)
	return m
}

// DefaultDistanceTable is the ACPI SLIT-style table for a flat linear
// interconnect: 10 on the diagonal (intra-node), 20 for neighbours and
// 10 more per additional hop.
func DefaultDistanceTable(nodes int) [][]int {
	d := make([][]int, nodes)
	for a := range d {
		d[a] = make([]int, nodes)
		for b := range d[a] {
			hops := a - b
			if hops < 0 {
				hops = -hops
			}
			d[a][b] = 10 + 10*hops
		}
	}
	return d
}

// SetDistanceTable installs a node-distance table (dimensions must be
// Nodes()×Nodes(), diagonal entries the minimum of their row) and
// rebuilds every node's zonelist to walk zones in increasing-distance
// order. Setup-time only: it must not race with allocations.
func (m *PhysMem) SetDistanceTable(d [][]int) {
	nodes := len(m.zones)
	if len(d) != nodes {
		panic("mem: distance table dimension mismatch")
	}
	cp := make([][]int, nodes)
	for a := range d {
		if len(d[a]) != nodes {
			panic("mem: distance table dimension mismatch")
		}
		for _, dist := range d[a] {
			if dist < d[a][a] {
				panic("mem: remote distance below intra-node distance")
			}
		}
		cp[a] = append([]int(nil), d[a]...)
	}
	m.distance = cp
	m.rebuildZonelists()
}

// NodeDistance reports the table distance from node a to node b's
// memory.
func (m *PhysMem) NodeDistance(a, b int) int { return m.distance[a][b] }

// Zonelist returns a copy of node's fallback walk order (the node
// itself first).
func (m *PhysMem) Zonelist(node int) []int {
	return append([]int(nil), m.zonelists[node]...)
}

// rebuildZonelists recomputes every node's fallback order from the
// distance table: increasing distance, ties toward lower node IDs, the
// home node always first (its diagonal entry is the row minimum).
func (m *PhysMem) rebuildZonelists() {
	nodes := len(m.zones)
	m.zonelists = make([][]int, nodes)
	for n := range m.zonelists {
		list := make([]int, nodes)
		for i := range list {
			list[i] = i
		}
		row := m.distance[n]
		sort.SliceStable(list, func(x, y int) bool {
			a, b := list[x], list[y]
			if a == n || b == n {
				return a == n && b != n
			}
			if row[a] != row[b] {
				return row[a] < row[b]
			}
			return a < b
		})
		m.zonelists[n] = list
	}
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
