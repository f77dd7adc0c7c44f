package core

import (
	"fmt"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/spec"
)

// counterexample checks the table row (family, name, bug) and returns
// its counterexample trace.
func counterexample(t *testing.T, family, name, bug string) []string {
	t.Helper()
	c, ok := spec.Find(family, name, bug)
	if !ok {
		t.Fatalf("no spec table row %s/%s/%s", family, name, bug)
	}
	res, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replaying: %s", strings.Join(res.Trace, " "))
	return res.Trace
}

func traceIndex(trace []string, prefix string) int {
	for i, l := range trace {
		if strings.HasPrefix(l, prefix) {
			return i
		}
	}
	return -1
}

// TestReplayReclaimFreeWhileMapped pins the reclaim model's
// eager-free-on-swap counterexample — the sweep frees the frame when
// writeback completes, before the page is unmapped — and replays its
// schedule against the real reclaimRangeNode, parked at the
// reclaim:submitted point (writeback queued, nothing reaped).
// At the step where the buggy model has already freed the frame, the
// real implementation must still have the page mapped, the frame
// referenced, and the bytes intact; after release the sweep completes
// and the page swaps out cleanly.
func TestReplayReclaimFreeWhileMapped(t *testing.T) {
	trace := counterexample(t, "reclaim", "interference", "eager-free-on-swap")
	if traceIndex(trace, "R:submit") < 0 || traceIndex(trace, "R:freeq") < 0 {
		t.Fatalf("trace missing the submit/free schedule: %v", trace)
	}
	if traceIndex(trace, "R:freeq") < traceIndex(trace, "R:submit") {
		t.Fatalf("free precedes submit in trace: %v", trace)
	}

	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, SwapDev: mem.NewBlockDev("swap")})
	if err != nil {
		t.Fatal(err)
	}
	// The model's 3-VA window with only va2 mapped: one populated page
	// at the window's last slot.
	base := arch.Vaddr(arch.SpanBytes(2))
	va2 := base + 2*arch.PageSize
	if err := a.MmapFixed(0, va2, arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va2, 0xAB); err != nil {
		t.Fatal(err)
	}
	pte, _, ok := a.tree.Walk(va2)
	if !ok {
		t.Fatal("page not mapped after populate")
	}
	pfn := a.isa.PFNOf(pte)
	// The store set the accessed bit; one ungated sweep grants the
	// second chance (clears it, evicts nothing) so the replayed sweep
	// finds the page cold — the model's A=false initial state.
	if n, err := a.ReclaimRange(1, base, 3*arch.PageSize, 4); err != nil || n != 0 {
		t.Fatalf("second-chance sweep: n=%d err=%v", n, err)
	}

	parked := fault.ReclaimSubmitted.Park()
	defer fault.ReclaimSubmitted.Disarm()

	var reclaimed int
	var sweepErr error
	assertLive := func(stage string) error {
		if _, _, ok := a.tree.Walk(va2); !ok {
			return fmt.Errorf("%s: page unmapped", stage)
		}
		d := m.Phys.Desc(pfn)
		if mc := d.MapCount(); mc != 1 {
			return fmt.Errorf("%s: frame mapcount %d, want 1", stage, mc)
		}
		if b := m.Phys.DataPage(pfn)[0]; b != 0xAB {
			return fmt.Errorf("%s: frame byte %#x, want 0xAB", stage, b)
		}
		return nil
	}

	r := spec.NewReplayer()
	r.BindStart("R:lock", "sweeper", func(string) error {
		reclaimed, sweepErr = a.ReclaimRange(1, base, 3*arch.PageSize, 4)
		return nil
	})
	r.Bind("R:submit", "main", func(string) error {
		parked.Await()
		// Writeback is queued but not reaped: the sweep is parked with
		// the covering lock held and the page untouched.
		return assertLive("at reclaim:submitted")
	})
	r.Bind("R:freeq", "main", func(string) error {
		// The buggy model has freed the frame here, while the page is
		// still mapped. The real code must not have: the free is
		// ordered after unmap, which is ordered after reap.
		if err := assertLive("at the model's premature free"); err != nil {
			return err
		}
		parked.Release()
		return nil
	})
	if err := r.Run(trace); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if sweepErr != nil || reclaimed != 1 {
		t.Fatalf("replayed sweep: reclaimed=%d err=%v", reclaimed, sweepErr)
	}
	if _, _, ok := a.tree.Walk(va2); ok {
		t.Fatal("page still mapped after the released sweep completed")
	}
	// Swap-in round trip proves the writeback carried the right bytes.
	if v, err := a.Load(0, va2); err != nil || v != 0xAB {
		t.Fatalf("swap-in readback: %d, %v", v, err)
	}
	a.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestReplayMigrationTornCopy pins the break-before-make model's
// copy-between-transactions counterexample — the copy racing a writer
// that COW-upgraded in the unlocked window — and replays it against the
// real migration, parked at migrate:post-barrier (exactly the window
// the buggy protocol copies in). The real code must instead revalidate,
// see the upgraded PTE, and abort into the self-healing state: the
// write survives in the source frame and no migration completes.
func TestReplayMigrationTornCopy(t *testing.T) {
	trace := counterexample(t, "bbm", "migration", "copy-between-txns")
	si, ci := traceIndex(trace, "w:store_start"), traceIndex(trace, "m:copy_start")
	if si < 0 || ci < 0 || ci < si {
		t.Fatalf("trace is not a store/copy race: %v", trace)
	}

	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	daemonOf(m)
	va := arch.Vaddr(arch.SpanBytes(2))
	if err := a.MmapFixed(0, va, arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	if err := a.Store(1, va, 0x11); err != nil {
		t.Fatal(err)
	}
	pte, _, ok := a.tree.Walk(va)
	if !ok {
		t.Fatal("page not mapped")
	}
	src := a.isa.PFNOf(pte)

	parked := fault.MigratePostBarrier.Park()
	defer fault.MigratePostBarrier.Disarm()

	var migErr error
	r := spec.NewReplayer()
	r.BindStart("m:lock1", "migrator", func(string) error {
		migErr = m.Phys.MigrateFrame(0, src)
		return nil
	})
	r.Bind("m:barrier", "main", func(string) error {
		parked.Await()
		// txn1 committed: the source must be write-protected + COW.
		pte, _, ok := a.tree.Walk(va)
		if !ok {
			return fmt.Errorf("page unmapped in the migration window")
		}
		perm := a.isa.PermOf(pte)
		if perm&arch.PermWrite != 0 || perm&arch.PermCOW == 0 {
			return fmt.Errorf("window perm %v, want RO+COW", perm)
		}
		return nil
	})
	r.Bind("w:store_start", "writer", func(string) error {
		// The writer's store in the window: COW fault, upgrade in
		// place, store — the self-healing path.
		return a.Store(1, va, 0x77)
	})
	r.Bind("m:copy_start", "main", func(string) error {
		// The buggy model copies here, racing the store. The real
		// migrator is still parked pre-txn2: the store must be wholly
		// in the source frame, untorn.
		if b := m.Phys.DataPage(src)[0]; b != 0x77 {
			return fmt.Errorf("source byte %#x before txn2, want 0x77", b)
		}
		parked.Release()
		return nil
	})
	if err := r.Run(trace); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	// The upgraded PTE fails txn2's revalidation: the migration aborts
	// and the page self-heals in place.
	if migErr == nil {
		t.Fatal("migration succeeded despite the COW upgrade in its window")
	}
	if st := m.Phys.MigrationStatsTotal(); st.Migrated != 0 {
		t.Fatalf("%d migrations completed, want 0 (aborted)", st.Migrated)
	}
	pte, _, ok = a.tree.Walk(va)
	if !ok {
		t.Fatal("page unmapped after abort")
	}
	if got := a.isa.PFNOf(pte); got != src {
		t.Fatalf("page moved to %d despite abort, want %d", got, src)
	}
	if perm := a.isa.PermOf(pte); perm&arch.PermWrite == 0 {
		t.Fatalf("abort did not leave the healed writable page: perm %v", perm)
	}
	if v, err := a.Load(2, va); err != nil || v != 0x77 {
		t.Fatalf("readback after abort: %d, %v", v, err)
	}
	a.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}
