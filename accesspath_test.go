package cortenmm_test

import (
	"math/rand/v2"
	"testing"

	"cortenmm"
)

// TestResidentAccessCounts pins the counts the access fast path's gain
// rests on, on the benchmark's resident_access mix: 256-access units
// over 8192 resident pages, 80 % of them in a 1024-page hot set (half
// the TLB), one access in four a store. They depend on the stream and
// the replacement policy alone, never on the host. Round-robin
// replacement read a hit rate of 0.7246 on this mix and LRU would read
// 0.781; not-recently-used keeps the hot set through the cold traffic.
func TestResidentAccessCounts(t *testing.T) {
	const (
		pages, hotPages = 8192, 1024
		units, perUnit  = 2000, 256
	)
	m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2, NUMANodes: 2, Frames: 1 << 16, TLB: cortenmm.TLBLATR})
	as, err := cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolAdv, PerCoreVA: true})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Destroy(0)
	base, err := as.Mmap(0, pages*cortenmm.PageSize, cortenmm.PermRW, cortenmm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	va := func(page uint) cortenmm.Vaddr { return base + cortenmm.Vaddr(page)*cortenmm.PageSize }
	// Every page read once and every leaf written once, as the workload's
	// set-up leaves them: no fault and no lazy payload in the counted part.
	for p := uint(0); p < pages; p++ {
		if err := as.Store(0, va(p), 0); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewPCG(1, 17))
	hot := r.Perm(pages)[:hotPages]
	before, faults := m.TLB.Stats(), as.Stats().PageFaults.Load()
	for i := 0; i < units*perUnit; i++ {
		page := r.UintN(pages)
		if r.UintN(5) != 0 {
			page = uint(hot[r.UintN(hotPages)])
		}
		if r.UintN(4) == 0 {
			err = as.Store(0, va(page), byte(page)|1)
		} else {
			_, err = as.Load(0, va(page))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	after := m.TLB.Stats()
	lookups, hits := after.Lookups-before.Lookups, after.Hits-before.Hits
	if lookups != units*perUnit {
		t.Errorf("%d lookups for %d accesses", lookups, units*perUnit)
	}
	if d := after.StaleDrops - before.StaleDrops; d != 0 {
		t.Errorf("%d stale drops with no invalidation in flight", d)
	}
	if d := as.Stats().PageFaults.Load() - faults; d != 0 {
		t.Errorf("%d page faults on resident pages", d)
	}
	rate := float64(hits) / float64(lookups)
	if rate < 0.79 {
		t.Errorf("hit rate %.4f, want at least 0.79", rate)
	}
	t.Logf("hit rate %.4f, %.1f evictions per unit", rate, float64(after.Evictions-before.Evictions)/units)

	if n := testing.AllocsPerRun(1000, func() {
		if _, err := as.Load(0, va(uint(hot[0]))); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warmed Load allocates %v times", n)
	}
}
