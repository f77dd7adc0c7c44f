package mem

import (
	"strings"
	"sync"
	"testing"

	"cortenmm/internal/arch"
)

// clusterNodes builds the cluster-block core→node map the simulator
// uses (core c on node c*nodes/cores).
func clusterNodes(cores, nodes int) []int {
	out := make([]int, cores)
	for c := range out {
		out[c] = c * nodes / cores
	}
	return out
}

// TestZoneLayout checks the shard geometry: zone bases aligned to
// huge-page blocks, the last zone absorbing the remainder, and every
// descriptor tagged with its owning zone.
func TestZoneLayout(t *testing.T) {
	const frames = 3000 // not a multiple of 2*zoneAlign
	m := NewPhysMemNUMA(frames, clusterNodes(4, 2))
	if m.Nodes() != 2 {
		t.Fatalf("Nodes() = %d, want 2", m.Nodes())
	}
	if m.zones[0].base != 0 {
		t.Errorf("zone 0 base = %d", m.zones[0].base)
	}
	if b := m.zones[1].base; uint64(b)%zoneAlign != 0 {
		t.Errorf("zone 1 base %d not %d-aligned", b, zoneAlign)
	}
	if m.zones[1].limit != frames {
		t.Errorf("last zone limit = %d, want %d", m.zones[1].limit, frames)
	}
	for pfn := 0; pfn < frames; pfn++ {
		if int(m.frames[pfn].Node) != m.zoneOf(arch.PFN(pfn)) {
			t.Fatalf("frame %#x node tag %d != zone %d", pfn, m.frames[pfn].Node, m.zoneOf(arch.PFN(pfn)))
		}
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("fresh NUMA memory: %s", rep.String())
	}
}

// TestNodeLocalAllocation is the locality property test: with plenty of
// headroom on every node, concurrent allocations from all cores must be
// served >= 90% node-locally (first-touch default policy). In practice
// the pcp caches and local-first zonelists make it 100%; the 90% bar is
// the acceptance criterion with slack for future policy changes.
func TestNodeLocalAllocation(t *testing.T) {
	const (
		frames = 1 << 14
		cores  = 8
		nodes  = 2
		perGo  = 500 // ~4000 frames of 16384: ample headroom
	)
	m := NewPhysMemNUMA(frames, clusterNodes(cores, nodes))
	var wg sync.WaitGroup
	held := make([][]arch.PFN, cores)
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perGo; i++ {
				pfn, err := m.AllocFrame(c, KindAnon)
				if err != nil {
					t.Errorf("core %d: %v", c, err)
					return
				}
				held[c] = append(held[c], pfn)
			}
		}(c)
	}
	wg.Wait()
	// Every held frame must be on its allocating core's home node, and
	// the counters must agree.
	for c := range held {
		home := m.coreNode(c)
		offNode := 0
		for _, pfn := range held[c] {
			if m.FrameNode(pfn) != home {
				offNode++
			}
		}
		if frac := float64(len(held[c])-offNode) / float64(len(held[c])); frac < 0.9 {
			t.Errorf("core %d: only %.1f%% node-local", c, 100*frac)
		}
	}
	for _, st := range m.NodeStats() {
		if st.LocalFraction() < 0.9 {
			t.Errorf("node %d: local fraction %.3f < 0.9 (local=%d remote=%d)",
				st.Node, st.LocalFraction(), st.Local, st.Remote)
		}
	}
	for c := range held {
		for _, pfn := range held[c] {
			m.Put(c, pfn)
		}
	}
	m.DrainPCP()
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestCrossNodeFallback exhausts node 0 and checks that node-0 cores
// spill onto node 1 instead of failing, that the spill is accounted as
// remote, and that the audit stays clean afterwards — frames freed from
// the "wrong" node must find their way back to their owning zone.
func TestCrossNodeFallback(t *testing.T) {
	const (
		frames = 4096
		cores  = 4
		nodes  = 2
	)
	m := NewPhysMemNUMA(frames, clusterNodes(cores, nodes))
	node0 := m.NodeFreeFrames(0)
	var held []arch.PFN
	// Core 0 (node 0) allocates past its zone's capacity.
	want := int(node0) + 256
	for i := 0; i < want; i++ {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			t.Fatalf("alloc %d/%d: %v", i, want, err)
		}
		held = append(held, pfn)
	}
	onNode1 := 0
	for _, pfn := range held {
		if m.FrameNode(pfn) == 1 {
			onNode1++
		}
	}
	if onNode1 < 256 {
		t.Errorf("only %d frames spilled to node 1, want >= 256", onNode1)
	}
	if st := m.NodeStats()[0]; st.Remote == 0 {
		t.Error("node 0 reports no remote allocations despite exhaustion spill")
	}
	// Free everything from a node-1 core: order-0 home frames go to its
	// pcp, node-0 frames must route back to zone 0's buddy.
	for _, pfn := range held {
		m.Put(3, pfn)
	}
	m.DrainPCP()
	if got := m.NodeFreeFrames(0); got != node0 {
		t.Errorf("node 0 free = %d after full release, want %d", got, node0)
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestAllocFrameOnPlacement: explicit node targeting serves from the
// requested zone when it has memory, regardless of the caller's home.
func TestAllocFrameOnPlacement(t *testing.T) {
	m := NewPhysMemNUMA(4096, clusterNodes(4, 2))
	pfn, err := m.AllocFrameOn(0, 1, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameNode(pfn) != 1 {
		t.Errorf("AllocFrameOn(node=1) returned node-%d frame %#x", m.FrameNode(pfn), pfn)
	}
	// The off-node grab is accounted against the requester's node.
	if st := m.NodeStats()[0]; st.Remote != 1 {
		t.Errorf("node 0 remote count = %d, want 1", st.Remote)
	}
	m.Put(0, pfn)
	m.DrainPCP()
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestAllocPolicyInterleave: the policy hook steers placement; clearing
// it restores first-touch.
func TestAllocPolicyInterleave(t *testing.T) {
	m := NewPhysMemNUMA(4096, clusterNodes(4, 2))
	next := 0
	m.SetAllocPolicy(func(core int) int {
		n := next
		next = (next + 1) % 2
		return n
	})
	var held []arch.PFN
	byNode := [2]int{}
	for i := 0; i < 64; i++ {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, pfn)
		byNode[m.FrameNode(pfn)]++
	}
	if byNode[0] == 0 || byNode[1] == 0 {
		t.Errorf("interleave policy ignored: split %v", byNode)
	}
	m.SetAllocPolicy(nil)
	pfn, err := m.AllocFrame(0, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if m.FrameNode(pfn) != 0 {
		t.Errorf("after policy reset core 0 got node-%d frame", m.FrameNode(pfn))
	}
	held = append(held, pfn)
	for _, p := range held {
		m.Put(0, p)
	}
}

// TestHugeOrderStaysInZone: order-9 blocks never straddle a zone
// boundary (zone bases are zoneAlign-aligned).
func TestHugeOrderStaysInZone(t *testing.T) {
	m := NewPhysMemNUMA(1<<13, clusterNodes(4, 2))
	var held []arch.PFN
	for {
		pfn, err := m.AllocFrames(0, 9, KindAnon)
		if err != nil {
			break
		}
		if m.FrameNode(pfn) != m.FrameNode(pfn+511) {
			t.Fatalf("order-9 block %#x straddles zones %d and %d",
				pfn, m.FrameNode(pfn), m.FrameNode(pfn+511))
		}
		held = append(held, pfn)
	}
	if len(held) == 0 {
		t.Fatal("no order-9 blocks allocated")
	}
	for _, p := range held {
		m.Put(0, p)
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestAuditCatchesZoneSkew: the per-zone cross-checks must flag both a
// mistagged descriptor and a zone whose descriptor-derived free count
// diverges from its allocator's.
func TestAuditCatchesZoneSkew(t *testing.T) {
	m := NewPhysMemNUMA(4096, clusterNodes(4, 2))
	pfn, err := m.AllocFrameOn(0, 0, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage 1: tag the node-0 frame as node 1.
	m.frames[pfn].Node = 1
	rep := m.Audit()
	if rep.Ok() {
		t.Fatal("audit missed a mistagged node descriptor")
	}
	m.frames[pfn].Node = 0

	// Sabotage 2: mark the held frame free without returning it to any
	// allocator — zone 0's descriptor count now exceeds its free lists.
	m.frames[pfn].Kind = KindFree
	m.frames[pfn].Ref.Store(0)
	m.kinds[KindAnon].Add(-1)
	rep = m.Audit()
	if rep.Ok() {
		t.Fatal("audit missed a zone free-count skew")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "zone 0") {
			found = true
		}
	}
	if !found {
		t.Errorf("no zone-level problem reported:\n%s", rep.String())
	}
}

// TestDefaultZonelistDistanceOrder pins the derived fallback order on
// the linear interconnect: home node first, then one hop at a time with
// ties toward lower IDs.
func TestDefaultZonelistDistanceOrder(t *testing.T) {
	m := NewPhysMemNUMA(1<<14, clusterNodes(8, 4))
	want := map[int][]int{
		0: {0, 1, 2, 3},
		1: {1, 0, 2, 3},
		2: {2, 1, 3, 0},
		3: {3, 2, 1, 0},
	}
	for n := 0; n < 4; n++ {
		got := m.Zonelist(n)
		for i := range got {
			if got[i] != want[n][i] {
				t.Fatalf("node %d zonelist = %v, want %v", n, got, want[n])
			}
		}
	}
}
