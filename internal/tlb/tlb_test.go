package tlb

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

func tr(pfn arch.PFN) pt.Translation {
	return pt.Translation{PFN: pfn, Perm: arch.PermRW, Level: 1}
}

func TestInsertLookupFlush(t *testing.T) {
	m := NewMachine(2, ModeSync)
	if _, ok := m.Lookup(0, 1, 0x1000); ok {
		t.Fatal("hit in empty TLB")
	}
	m.Insert(0, 1, 0x1000, tr(7))
	got, ok := m.Lookup(0, 1, 0x1000)
	if !ok || got.PFN != 7 {
		t.Fatalf("lookup = %+v ok=%v", got, ok)
	}
	// ASIDs are independent tags.
	if _, ok := m.Lookup(0, 2, 0x1000); ok {
		t.Fatal("cross-ASID hit")
	}
	// Other core's TLB is independent.
	if _, ok := m.Lookup(1, 1, 0x1000); ok {
		t.Fatal("cross-core hit")
	}
	m.FlushLocal(0, 1, 0x1000)
	if _, ok := m.Lookup(0, 1, 0x1000); ok {
		t.Fatal("hit after local flush")
	}
}

func TestFlushLocalAll(t *testing.T) {
	m := NewMachine(1, ModeSync)
	m.Insert(0, 1, 0x1000, tr(1))
	m.Insert(0, 1, 0x2000, tr(2))
	m.Insert(0, 2, 0x1000, tr(3))
	m.cores[0].invalidateLocal(Invalidation{ASID: 1, All: true})
	if _, ok := m.Lookup(0, 1, 0x1000); ok {
		t.Error("asid 1 entry survived a full-ASID local invalidation")
	}
	if _, ok := m.Lookup(0, 2, 0x1000); !ok {
		t.Error("asid 2 entry wrongly flushed")
	}
}

func TestSyncShootdownImmediate(t *testing.T) {
	m := NewMachine(4, ModeSync)
	for c := 0; c < 4; c++ {
		m.Insert(c, 1, 0x5000, tr(5))
	}
	m.ShootdownRange(0, 1, 0x5000, 0x6000)
	for c := 0; c < 4; c++ {
		if _, ok := m.Lookup(c, 1, 0x5000); ok {
			t.Errorf("core %d still holds translation after sync shootdown", c)
		}
	}
	st := m.Stats()
	if st.IPIs != 3 {
		t.Errorf("IPIs = %d, want 3", st.IPIs)
	}
	if st.Shootdowns != 1 {
		t.Errorf("Shootdowns = %d", st.Shootdowns)
	}
}

func TestEarlyAckAppliesOnNextAccess(t *testing.T) {
	m := NewMachine(2, ModeEarlyAck)
	m.Insert(1, 1, 0x5000, tr(5))
	m.ShootdownRange(0, 1, 0x5000, 0x6000)
	if m.PendingInvalidations() == 0 {
		t.Fatal("early-ack queued nothing")
	}
	// The target's next TLB access drains its inbox first, so the stale
	// translation is never returned.
	if _, ok := m.Lookup(1, 1, 0x5000); ok {
		t.Fatal("stale translation returned after early-ack shootdown")
	}
	if m.PendingInvalidations() != 0 {
		t.Error("inbox not drained by lookup")
	}
}

func TestLATRAppliedOnTick(t *testing.T) {
	m := NewMachine(3, ModeLATR)
	m.Insert(1, 1, 0x7000, tr(7))
	m.Insert(2, 1, 0x7000, tr(7))
	m.ShootdownRange(0, 1, 0x7000, 0x8000)
	// LATR defers: remote TLBs still hold the translation until a tick.
	if _, ok := m.Lookup(1, 1, 0x7000); !ok {
		t.Fatal("LATR applied eagerly; expected bounded staleness")
	}
	m.Tick(1)
	for c := 1; c < 3; c++ {
		if _, ok := m.Lookup(c, 1, 0x7000); ok {
			t.Errorf("core %d stale after tick", c)
		}
	}
	if m.PendingInvalidations() != 0 {
		t.Error("LATR buffer not cleared after tick")
	}
	if m.Stats().IPIs != 0 {
		t.Error("LATR sent IPIs")
	}
}

func TestShootdownAll(t *testing.T) {
	m := NewMachine(2, ModeSync)
	m.Insert(0, 3, 0x1000, tr(1))
	m.Insert(1, 3, 0x2000, tr(2))
	m.Insert(1, 4, 0x2000, tr(9))
	m.ShootdownAll(0, 3, false)
	if _, ok := m.Lookup(1, 3, 0x2000); ok {
		t.Error("asid 3 survived ShootdownAll")
	}
	if _, ok := m.Lookup(1, 4, 0x2000); !ok {
		t.Error("asid 4 wrongly invalidated")
	}
}

func TestCapacityEviction(t *testing.T) {
	m := NewMachine(1, ModeSync)
	// Occupancy is structurally bounded (fixed slot array); overfilling
	// must evict per set — observable through the evictions counter —
	// and every surviving entry must still translate correctly.
	const n = nSets*nWays + 512
	for i := 0; i < n; i++ {
		m.Insert(0, 1, arch.Vaddr(i)*arch.PageSize, tr(arch.PFN(i)))
	}
	if ev := m.Stats().Evictions; ev == 0 {
		t.Error("no evictions counted after overfilling the TLB")
	}
	if got, ok := m.Lookup(0, 1, arch.Vaddr(n-1)*arch.PageSize); !ok || got.PFN != arch.PFN(n-1) {
		t.Errorf("most recent fill not resident: %+v ok=%v", got, ok)
	}
	for i := 0; i < n; i++ {
		if got, ok := m.Lookup(0, 1, arch.Vaddr(i)*arch.PageSize); ok && got.PFN != arch.PFN(i) {
			t.Fatalf("page %d: hit with wrong translation %+v", i, got)
		}
	}
}

func TestRangeShootdownPrecision(t *testing.T) {
	m := NewMachine(2, ModeSync)
	for i := 0; i < 8; i++ {
		m.Insert(1, 1, arch.Vaddr(i)*arch.PageSize, tr(arch.PFN(i)))
	}
	// A wide-range shootdown becomes a generation bump on core 1's
	// epoch cell; its ring must keep the invalidation precise: covered
	// pages die, the rest keep hitting.
	m.ShootdownRange(0, 1, 2*arch.PageSize, 6*arch.PageSize)
	for i := 0; i < 8; i++ {
		_, ok := m.Lookup(1, 1, arch.Vaddr(i)*arch.PageSize)
		if covered := i >= 2 && i < 6; covered && ok {
			t.Errorf("page %d survived range shootdown", i)
		} else if !covered && !ok {
			t.Errorf("page %d outside range was invalidated", i)
		}
	}
}

// TestRingWrapMissesOnce: the ring is a cell's only history, so an
// entry survives as long as its history fits in the ring and misses,
// once, when it has left it.
func TestRingWrapMissesOnce(t *testing.T) {
	m := NewMachine(2, ModeSync)
	m.Insert(1, 1, 0x1000, tr(1))
	shoot := func(n, base int) {
		for i := 0; i < n; i++ {
			lo := arch.Vaddr(base + i*0x1000)
			m.ShootdownRange(0, 1, lo, lo+(preciseLimit+1)*arch.PageSize)
		}
	}
	// ringLen-1 disjoint records: the history is all in the ring, so
	// the replay is precise and the entry keeps hitting.
	shoot(ringLen-1, 0x100000)
	if _, ok := m.Lookup(1, 1, 0x1000); !ok {
		t.Error("entry lost with its whole history in the ring")
	}
	if sd := m.Stats().StaleDrops; sd != 0 {
		t.Errorf("staledrops = %d after a burst the ring holds, want 0", sd)
	}
	// More disjoint records than the ring holds: the entry's history
	// has left the ring, so it misses conservatively, once.
	shoot(ringLen+1, 0x200000)
	if _, ok := m.Lookup(1, 1, 0x1000); ok {
		t.Error("entry whose history left the ring still hit")
	}
	if sd := m.Stats().StaleDrops; sd != 1 {
		t.Errorf("staledrops = %d after the ring wrapped, want 1", sd)
	}
	// A covered entry two rings deep in history must still die.
	m.Insert(1, 1, 0x2000, tr(2))
	m.ShootdownRange(0, 1, 0x2000, 0x3000)
	for i := 0; i < 2*ringLen; i++ {
		m.ShootdownRange(0, 1, arch.Vaddr(0x200000+i*0x1000), arch.Vaddr(0x200000+(i+1)*0x1000))
	}
	if _, ok := m.Lookup(1, 1, 0x2000); ok {
		t.Error("covered entry survived a wrapped ring")
	}
}

func TestLostHistoryMissesConservatively(t *testing.T) {
	m := NewMachine(2, ModeSync)
	m.Insert(1, 1, 0x1000, tr(1))
	// Push twice as many disjoint records as the ring holds; once the
	// entry's history has left the ring, the lazy check must discard it
	// conservatively rather than guess.
	for i := 0; i < 2*ringLen; i++ {
		lo := arch.Vaddr(0x1000000 + i*0x1000)
		m.ShootdownRange(0, 1, lo, lo+0x1000)
	}
	if _, ok := m.Lookup(1, 1, 0x1000); ok {
		t.Error("entry older than the ring survived; must miss conservatively")
	}
}

func TestPresenceFiltering(t *testing.T) {
	m := NewMachine(4, ModeSync)
	m.Insert(1, 1, 0x3000, tr(3))
	// Only core 1 has ever cached asid 1: cores 2 and 3 must be
	// filtered, not signalled.
	m.ShootdownAll(0, 1, false)
	st := m.Stats()
	if st.IPIs != 1 || st.Filtered != 2 {
		t.Fatalf("IPIs=%d Filtered=%d after first ShootdownAll, want 1/2", st.IPIs, st.Filtered)
	}
	// After the full-ASID flush core 1's cell is provably empty too.
	m.ShootdownAll(0, 1, false)
	st = m.Stats()
	if st.IPIs != 1 || st.Filtered != 5 {
		t.Fatalf("IPIs=%d Filtered=%d after second ShootdownAll, want 1/5", st.IPIs, st.Filtered)
	}
	if _, ok := m.Lookup(1, 1, 0x3000); ok {
		t.Error("entry survived filtered shootdown")
	}
	// A fresh insert re-arms the presence bit.
	m.Insert(2, 1, 0x4000, tr(4))
	m.ShootdownAll(0, 1, false)
	st = m.Stats()
	if st.IPIs != 2 {
		t.Errorf("IPIs=%d after re-insert, want 2", st.IPIs)
	}
	if _, ok := m.Lookup(2, 1, 0x4000); ok {
		t.Error("re-inserted entry survived shootdown")
	}
}

func TestConcurrentShootdownsRace(t *testing.T) {
	const cores = 8
	m := NewMachine(cores, ModeSync)
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				va := arch.Vaddr(i%32) * arch.PageSize
				m.Insert(c, 1, va, tr(arch.PFN(i)))
				if i%8 == 0 {
					m.ShootdownRange(c, 1, va, va+arch.PageSize)
				}
				m.Lookup(c, 1, va)
			}
		}()
	}
	wg.Wait()
}

func TestHitRateStats(t *testing.T) {
	m := NewMachine(1, ModeSync)
	m.Insert(0, 1, 0x1000, tr(1))
	m.Lookup(0, 1, 0x1000)
	m.Lookup(0, 1, 0x2000)
	st := m.Stats()
	if st.Lookups != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNodeBatchedFanout checks the cluster-IPI accounting: shootdown
// delivery is batched per node, each node with at least one non-filtered
// target costs exactly one cluster IPI, and presence-filtered cores are
// charged to their node without triggering a broadcast.
func TestNodeBatchedFanout(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1}
	m := NewMachineNUMA(ModeSync, nodeOf)
	for c := 1; c < 4; c++ {
		m.Insert(c, 1, 0x5000, tr(5))
	}
	// Core 0 shoots: core 1 (node 0) + cores 2,3 (node 1) all present.
	m.ShootdownRange(0, 1, 0x5000, 0x6000)
	ns := m.NodeStats()
	if len(ns) != 2 {
		t.Fatalf("NodeStats returned %d nodes, want 2", len(ns))
	}
	if ns[0].Deliveries != 1 || ns[0].Filtered != 0 || ns[0].ClusterIPIs != 1 {
		t.Errorf("node 0 = %+v, want 1 delivery / 1 cluster IPI", ns[0])
	}
	if ns[1].Deliveries != 2 || ns[1].Filtered != 0 || ns[1].ClusterIPIs != 1 {
		t.Errorf("node 1 = %+v, want 2 deliveries / 1 cluster IPI", ns[1])
	}
	if st := m.Stats(); st.ClusterIPIs != 2 {
		t.Errorf("total cluster IPIs = %d, want 2", st.ClusterIPIs)
	}

	// ASID 2 lives only on core 3: node 0 is fully filtered and must not
	// pay a cluster IPI; node 1 filters core 2 but still broadcasts once
	// for core 3.
	m.Insert(3, 2, 0x6000, tr(6))
	m.ShootdownRange(0, 2, 0x6000, 0x7000)
	ns = m.NodeStats()
	if ns[0].Deliveries != 1 || ns[0].Filtered != 1 || ns[0].ClusterIPIs != 1 {
		t.Errorf("node 0 after filtered round = %+v", ns[0])
	}
	if ns[1].Deliveries != 3 || ns[1].Filtered != 1 || ns[1].ClusterIPIs != 2 {
		t.Errorf("node 1 after filtered round = %+v", ns[1])
	}
	if st := m.Stats(); st.ClusterIPIs != 3 {
		t.Errorf("total cluster IPIs = %d, want 3", st.ClusterIPIs)
	}
}

// TestNodeBatchedFanoutLATR: deferred invalidations fanned out at tick
// time go through the same node batching.
func TestNodeBatchedFanoutLATR(t *testing.T) {
	nodeOf := []int{0, 0, 1, 1}
	m := NewMachineNUMA(ModeLATR, nodeOf)
	for c := 0; c < 4; c++ {
		m.Insert(c, 1, 0x7000, tr(7))
	}
	m.ShootdownRange(0, 1, 0x7000, 0x8000)
	// Deferred: no fan-out yet.
	if st := m.Stats(); st.ClusterIPIs != 0 {
		t.Fatalf("cluster IPIs before tick = %d", st.ClusterIPIs)
	}
	m.Tick(0) // initiator's tick sweeps its LATR buffer to the others
	ns := m.NodeStats()
	var deliv, cipis uint64
	for _, n := range ns {
		deliv += n.Deliveries
		cipis += n.ClusterIPIs
	}
	if deliv != 3 || cipis != 2 {
		t.Errorf("LATR fan-out: deliveries=%d clusterIPIs=%d, want 3/2 (%+v)", deliv, cipis, ns)
	}
	for c := 1; c < 4; c++ {
		m.Tick(c)
		if _, ok := m.Lookup(c, 1, 0x7000); ok {
			t.Errorf("core %d entry survived ticked shootdown", c)
		}
	}
}

// TestSingleNodeDefault: NewMachine (no topology) behaves as one node.
func TestSingleNodeDefault(t *testing.T) {
	m := NewMachine(4, ModeSync)
	m.Insert(1, 1, 0x1000, tr(1))
	m.ShootdownRange(0, 1, 0x1000, 0x2000)
	ns := m.NodeStats()
	if len(ns) != 1 {
		t.Fatalf("default machine has %d nodes, want 1", len(ns))
	}
	if ns[0].ClusterIPIs != 1 {
		t.Errorf("node 0 = %+v, want 1 cluster IPI", ns[0])
	}
}

// TestLATRTickWaitsForInflightSweep is the regression test for the
// Quiesce hole: a sweeper that has taken a core's LATR buffer but not
// yet applied it must stay visible to every other Tick. The sweeper on
// core 1 is parked mid-application by holding core 2's epoch-cell
// seqlock (bump spins on it); the Ticks cpusim.Machine.Quiesce makes —
// one per core — must then not return before the parked sweep has
// landed its generation bump on core 2.
func TestLATRTickWaitsForInflightSweep(t *testing.T) {
	const asid, va = ASID(1), arch.Vaddr(0x7000)
	m := NewMachine(3, ModeLATR)
	m.Insert(2, asid, va, tr(7))
	m.ShootdownRange(0, asid, va, va+arch.PageSize)

	cell := m.cores[2].cell(asid)
	cell.seq.Add(1) // odd: a writer holds the cell, so bump spins

	swept := make(chan struct{})
	go func() {
		defer close(swept)
		m.Tick(1)
	}()
	// Wait for the event "sweeper took the buffer", not a delay.
	for taken := false; !taken; runtime.Gosched() {
		src := &m.cores[0]
		src.latr.mu.Lock()
		taken = len(src.latr.buf) == 0
		src.latr.mu.Unlock()
	}

	quiesced := make(chan struct{})
	go func() {
		defer close(quiesced)
		for c := 0; c < 3; c++ {
			m.Tick(c)
		}
	}()
	select {
	case <-quiesced:
		t.Error("every core ticked while a sweep was still applying core 0's buffer")
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.PendingInvalidations(); got != 1 {
		t.Errorf("PendingInvalidations during the parked sweep = %d, want 1", got)
	}

	cell.seq.Add(1) // release the cell
	<-swept
	<-quiesced
	if _, ok := m.Lookup(2, asid, va); ok {
		t.Error("core 2 still translates after every core ticked")
	}
	if got := m.PendingInvalidations(); got != 0 {
		t.Errorf("PendingInvalidations after the sweep = %d, want 0", got)
	}
}

// TestFillBeginCoversShootdownDuringWalk: a shootdown that lands after a
// core's walk read the PTE but before the fill is published must still
// kill the filled entry, in every mode, even when the core held no entry
// of the ASID before (so the presence filter would have skipped it).
// FillBegin before the walk is what guarantees it; a fill stamped after
// the shootdown (plain Insert) is the stale entry the old code cached.
func TestFillBeginCoversShootdownDuringWalk(t *testing.T) {
	const asid, va = ASID(1), arch.Vaddr(0x9000)
	for _, mode := range []Mode{ModeSync, ModeEarlyAck, ModeLATR} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewMachine(2, mode)
			g := m.FillBegin(1, asid)
			// ... core 1's walk reads the still-valid PTE here ...
			m.ShootdownRange(0, asid, va, va+arch.PageSize) // core 0 unmapped it meanwhile
			m.InsertAt(1, asid, va, tr(7), g)
			m.Tick(1) // LATR applies at the tick; a no-op for the others' contract
			if _, ok := m.Lookup(1, asid, va); ok {
				t.Fatal("a fill whose walk predates the shootdown survived it")
			}
			if mode != ModeSync {
				return
			}
			// The same interleaving with the generation sampled at insert
			// time: presence-filtered, stamped current, never invalidated.
			m = NewMachine(2, mode)
			m.ShootdownRange(0, asid, va, va+arch.PageSize)
			m.Insert(1, asid, va, tr(7))
			if _, ok := m.Lookup(1, asid, va); !ok {
				t.Fatal("expected the late-stamped fill to look valid (the hazard FillBegin removes)")
			}
		})
	}
}
