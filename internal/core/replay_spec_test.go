package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

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
// lock-in-read-section counterexample — a writer that faults on the
// write-protected page and waits for the migrator's lock inside its read
// section, while the migrator waits under that lock for the grace period
// the section holds up — and replays it against the real migration,
// parked under its lock at migrate:pre-barrier. At the model's stuck
// state the real storer must be waiting for the lock with no read section
// open; released, the barrier completes, the page moves, and the store
// lands in the new frame.
func TestReplayMigrationTornCopy(t *testing.T) {
	trace := counterexample(t, "bbm", "migration", "lock-in-read-section")
	if bi, wi := traceIndex(trace, "m:shoot1"), traceIndex(trace, "w:walk_cow"); bi < 0 || wi < bi || trace[len(trace)-1] != "<stuck>" {
		t.Fatalf("trace is not a fault stuck behind the break: %v", trace)
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

	parked := fault.MigratePreBarrier.Park()
	defer fault.MigratePreBarrier.Disarm()

	migrated, stored := make(chan error, 1), make(chan error, 1)
	r := spec.NewReplayer()
	r.BindStart("m:lock", "migrator", func(string) error {
		migrated <- m.Phys.MigrateFrame(0, src, 0)
		return nil
	})
	r.Bind("m:shoot1", "main", func(string) error {
		parked.Await()
		// The break is done: the page is write-protected and shot down,
		// and the migrator holds its lock.
		pte, _, ok := a.tree.Walk(va)
		if perm := a.isa.PermOf(pte); !ok || perm&arch.PermWrite != 0 || perm&arch.PermCOW == 0 {
			return fmt.Errorf("after the break: mapped=%v perm %v, want RO+COW", ok, perm)
		}
		return nil
	})
	r.BindStart("w:walk_cow", "writer", func(string) error {
		stored <- a.Store(1, va, 0x77)
		return nil
	})
	r.Bind("<stuck>", "main", func(string) error {
		// The buggy model is stuck here. The real storer must be waiting
		// for the lock outside any read section, its store not landed.
		if err := waitForLock(m, 1, stored); err != nil {
			return err
		}
		if b := m.Phys.DataPage(src)[0]; b != 0x11 {
			return fmt.Errorf("source byte %#x while the store waits, want 0x11", b)
		}
		parked.Release()
		return nil
	})
	if err := r.Run(trace); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan error{migrated, stored} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stuck after release: the barrier waits on the storer's read section")
		}
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := m.Phys.MigrationStats(); st.Migrated != 1 {
		t.Fatalf("%d migrations completed, want 1", st.Migrated)
	}
	pte, _, ok = a.tree.Walk(va)
	if !ok || a.isa.PFNOf(pte) == src || a.isa.PermOf(pte)&arch.PermWrite == 0 {
		t.Fatalf("after the move: mapped=%v frame %d (source %d) perm %v, want a new writable frame", ok, a.isa.PFNOf(pte), src, a.isa.PermOf(pte))
	}
	if b := m.Phys.DataPage(a.isa.PFNOf(pte))[0]; b != 0x77 {
		t.Fatalf("new frame byte %#x, want the store's 0x77", b)
	}
	a.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}
