package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// numaPressureMachine builds a 2-node, 4-core machine: cores 0-1 on
// node 0, cores 2-3 on node 1, one 1024-frame zone per node.
func numaPressureMachine(tickEvery int) *cpusim.Machine {
	return cpusim.New(cpusim.Config{Cores: 4, NUMANodes: 2, Frames: 2048, TickEvery: tickEvery})
}

// TestPerNodeKswapd: pressure confined to node 0 kicks only node 0's
// background sweeper — ticks on a node-1 core do nothing, ticks on a
// node-0 core swap node-0 pages out, and node 1's zone is untouched.
func TestPerNodeKswapd(t *testing.T) {
	m := numaPressureMachine(8)
	dev := mem.NewBlockDev("swap")
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, SwapDev: dev})
	if err != nil {
		t.Fatal(err)
	}
	// Global low = 512 -> 256 per zone.
	d := AttachReclaim(m, ReclaimConfig{LowWater: 512, MinWater: 16})
	d.Register(a)
	defer a.Destroy(0)

	node1Free := m.Phys.NodeFreeFrames(1)
	// Core 0 populates 900 pages: first-touch keeps them (and the PT
	// frames) on node 0, dropping that zone below its 256-frame low mark
	// while node 1 stays full.
	va, err := a.Mmap(0, 900*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if free := m.Phys.NodeFreeFrames(0); free >= 256 {
		t.Fatalf("setup failed: node 0 has %d free, want < 256", free)
	}
	if free := m.Phys.NodeFreeFrames(1); free != node1Free {
		t.Fatalf("populate leaked onto node 1: %d -> %d free", node1Free, free)
	}

	// Node 1's cores tick first: their node was never kicked, so no
	// sweeps may run.
	for i := 0; i < 256; i++ {
		m.OpTick(2)
		m.OpTick(3)
	}
	if got := d.Stats().BgSweeps; got != 0 {
		t.Fatalf("node-1 ticks ran %d sweeps without node-1 pressure", got)
	}

	// Node 0's core ticks: its kswapd must sweep and swap out.
	for i := 0; i < 512; i++ {
		m.OpTick(0)
	}
	if d.Stats().BgSweeps == 0 {
		t.Fatal("no background sweeps despite node-0 pressure")
	}
	if a.Stats().SwapOuts.Load() == 0 {
		t.Fatal("node-0 kswapd reclaimed nothing")
	}
	// Background reclaim is node-filtered: node 1's zone must still be
	// untouched, and nothing may have been stolen.
	if free := m.Phys.NodeFreeFrames(1); free != node1Free {
		t.Errorf("node 1 free %d -> %d: background sweep crossed nodes", node1Free, free)
	}
	if got := d.Stats().Stolen; got != 0 {
		t.Errorf("background sweeps stole %d cross-node pages", got)
	}
	if _, err := a.Load(0, va); err != nil {
		t.Fatal(err)
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}

// TestDirectReclaimStealsCrossNode: when the starved node has no
// reclaimable frames at all, direct reclaim's node-filtered passes come
// up empty and the final pass steals from the other node — the Stolen
// counter proves the fallback ran, and the victim's data survives the
// forced swap round trip.
func TestDirectReclaimStealsCrossNode(t *testing.T) {
	m := numaPressureMachine(64)
	dev := mem.NewBlockDev("swap")
	// The hog has no swap device and is never registered: its node-0
	// frames are invisible to reclaim.
	hog, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := New(Options{Machine: m, Protocol: ProtocolAdv, SwapDev: dev})
	if err != nil {
		t.Fatal(err)
	}
	d := AttachReclaim(m, ReclaimConfig{})
	d.Register(victim)
	defer hog.Destroy(0)
	defer victim.Destroy(2)

	// Hog fills most of node 0 from core 0 (first-touch -> node 0).
	if _, err := hog.Mmap(0, 900*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	// Victim fills most of node 1 from core 2; every frame it owns lives
	// on node 1 (node 1 has ample headroom, so no spill to node 0).
	const victimPages = 880
	vva, err := victim.Mmap(2, victimPages*arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < victimPages; i++ {
		if err := victim.Store(2, vva+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The hog now wants 450 more pages from core 0 (node 0). Free frames
	// across the machine are far short; the only reclaimable pages are
	// the victim's, all on node 1 — the node-0-filtered passes find
	// nothing and the steal pass must make up the difference.
	if _, err := hog.Mmap(0, 450*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatalf("allocation failed despite stealable cross-node memory: %v", err)
	}
	st := d.Stats()
	if st.DirectRounds == 0 {
		t.Fatal("no direct-reclaim rounds ran")
	}
	if st.Stolen == 0 {
		t.Error("Stolen == 0: direct reclaim never fell back to cross-node frames")
	}
	if a, b := st.Stolen, st.Reclaimed; a > b {
		t.Errorf("Stolen %d exceeds Reclaimed %d", a, b)
	}
	if victim.Stats().SwapOuts.Load() == 0 {
		t.Error("victim has no swap-outs despite being the only reclaim source")
	}
	// Victim data survives the forced eviction (swap-ins under pressure).
	for i := 0; i < victimPages; i += 16 {
		b, err := victim.Load(2, vva+arch.Vaddr(i*arch.PageSize))
		if err != nil {
			t.Fatalf("victim page %d: %v", i, err)
		}
		if b != byte(i) {
			t.Fatalf("victim page %d = %d after steal round trip", i, b)
		}
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatalf("%s", rep.String())
	}
}
