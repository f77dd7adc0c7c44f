package core

import (
	"errors"
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// TestMigrationUnderConcurrentAccess hammers a region from a writer and
// a reader while a third goroutine migrates its frames nonstop. The
// break-before-make protocol must guarantee: no write is ever lost (a
// store that raced the move either retired before its barrier and was
// copied, or faulted, waited for the move's lock and landed in the new
// frame), and no read ever travels backward (a stale TLB entry pointing
// at a freed source frame would do exactly that). Run under -race this
// also checks the pin/break/copy/remap dance for data races.
func TestMigrationUnderConcurrentAccess(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	daemonOf(m)

	const pages = 32
	const rounds = 40
	base := arch.Vaddr(arch.SpanBytes(2))
	if err := a.MmapFixed(0, base, pages*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	pageVA := func(i int) arch.Vaddr { return base + arch.Vaddr(i*arch.PageSize) }

	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // writer, core 1: every store is read back immediately.
		// A lost write (store landed in a frame the migration had already
		// copied) or a stale read (load through a translation of the freed
		// source) both surface as a readback mismatch.
		defer wg.Done()
		defer close(done)
		for r := 1; r <= rounds; r++ {
			for i := 0; i < pages; i++ {
				if err := a.Store(1, pageVA(i), byte(r)); err != nil {
					errs <- err
					return
				}
				v, err := a.Load(1, pageVA(i))
				if err != nil {
					errs <- err
					return
				}
				if v != byte(r) {
					t.Errorf("page %d round %d read back %d", i, r, v)
					return
				}
			}
		}
	}()
	go func() { // prober, core 2: fault/TLB pressure on the same pages.
		// It reads a byte the writer never touches (so user-level accesses
		// stay race-free) — a migration that copied the wrong bytes would
		// flip it from zero.
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < pages; i++ {
				v, err := a.Load(2, pageVA(i)+64)
				if err != nil {
					errs <- err
					return
				}
				if v != 0 {
					t.Errorf("page %d untouched byte became %d", i, v)
					return
				}
			}
		}
	}()
	// Migrator, core 0: move whatever currently backs each page.
	// ErrNotMovable is expected noise — a concurrent fault makes the
	// frame transiently non-exclusive, and the check refuses it.
	for {
		select {
		case <-done:
		default:
			for i := 0; i < pages; i++ {
				if pte, _, ok := a.tree.Walk(pageVA(i)); ok {
					_ = m.Phys.MigrateFrame(0, a.isa.PFNOf(pte), 0)
				}
			}
			continue
		}
		break
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	for i := 0; i < pages; i++ {
		if v, err := a.Load(0, pageVA(i)); err != nil || v != rounds {
			t.Errorf("page %d final value %d, %v; want %d", i, v, err, rounds)
		}
	}
	if st := m.Phys.MigrationStats(); st.Migrated == 0 {
		t.Errorf("no migration ever completed (attempted %d)", st.Attempted)
	}
	a.Destroy(0)
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestDemoteThenReclaim: a collapsed huge span that goes cold must be
// demoted (split back to 4-KiB) by one sweep and actually evicted by a
// later one — never swapped out as a 2-MiB unit, and never evicted on
// the same sweep that demoted it (demotion is the huge span's second
// chance).
func TestDemoteThenReclaim(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, SwapDev: mem.NewBlockDev("swap")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.Destroy(0); m.Quiesce() }()

	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	if err := a.MmapFixed(0, base, span, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < span; off += arch.PageSize {
		if err := a.Store(0, base+arch.Vaddr(off), byte(off/arch.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CollapseHuge(0, base); err != nil {
		t.Fatal(err)
	}
	if _, level, ok := a.tree.Walk(base); !ok || level != 2 {
		t.Fatalf("collapse did not produce a huge leaf (level=%d)", level)
	}
	// The collapse wrote a fresh PTE with a clear A bit; touch the span
	// so sweep 1 sees it young.
	if _, err := a.Load(0, base); err != nil {
		t.Fatal(err)
	}

	// Sweep 1: the span is being used, so it is young — A bits are
	// cleared, nothing is demoted or evicted.
	if n, err := a.ReclaimRange(0, base, span, 64); err != nil || n != 0 {
		t.Fatalf("sweep 1 reclaimed %d, %v; want 0", n, err)
	}
	if d := a.Stats().Demotions.Load(); d != 0 {
		t.Fatalf("young huge span demoted (%d)", d)
	}

	// Sweep 2: now cold — demoted, still resident, still not evicted.
	if n, err := a.ReclaimRange(0, base, span, 64); err != nil || n != 0 {
		t.Fatalf("sweep 2 reclaimed %d, %v; want 0 (demote only)", n, err)
	}
	if d := a.Stats().Demotions.Load(); d != 1 {
		t.Fatalf("demotions after sweep 2 = %d, want 1", d)
	}
	if _, level, ok := a.tree.Walk(base); !ok || level != 1 {
		t.Fatalf("span not split back to 4-KiB (level=%d)", level)
	}

	// Sweep 3: the 4-KiB pages are cold and individually evictable now.
	n, err := a.ReclaimRange(0, base, span, 64)
	if err != nil || n == 0 {
		t.Fatalf("sweep 3 reclaimed %d, %v; want > 0", n, err)
	}
	if s := a.Stats().SwapOuts.Load(); s == 0 {
		t.Fatal("no swap-outs recorded")
	}

	// Faulting the pages back must restore the pre-collapse data.
	for off := uint64(0); off < span; off += arch.PageSize {
		v, err := a.Load(0, base+arch.Vaddr(off))
		if err != nil || v != byte(off/arch.PageSize) {
			t.Fatalf("page at +%#x: %d, %v; want %d", off, v, err, byte(off/arch.PageSize))
		}
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestMigrationKeepsReadOnlyPageReadOnly parks the migration of a
// read-only page after its barrier. A page without write access has
// nothing to write-protect: marking it copy-on-write would let a later
// store's fault upgrade it to writable. The break must leave it plain
// read-only, the page must migrate, still read-only, and a store after
// the move must fail with ErrSegv.
func TestMigrationKeepsReadOnlyPageReadOnly(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	daemonOf(m)
	va := arch.Vaddr(arch.SpanBytes(2))
	if err := a.MmapFixed(0, va, arch.PageSize, arch.PermRead, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	pte, _, ok := a.tree.Walk(va)
	if !ok {
		t.Fatal("page not mapped after populate")
	}
	src := a.isa.PFNOf(pte)
	parked, done := parkAfterBarrier(t, func() error { return m.Phys.MigrateFrame(0, src, 0) })
	defer fault.MigratePostBarrier.Disarm()
	if pte, _, ok := a.tree.Walk(va); !ok || a.isa.PermOf(pte) != arch.PermRead {
		t.Errorf("window: mapped=%v perm %v, want read-only without COW", ok, a.isa.PermOf(pte))
	}
	parked.Release()
	if err := <-done; err != nil {
		t.Fatalf("migration: %v", err)
	}
	pte, _, ok = a.tree.Walk(va)
	if !ok || a.isa.PFNOf(pte) == src || a.isa.PermOf(pte) != arch.PermRead {
		t.Fatalf("after migration: mapped=%v frame %d (source %d) perm %v, want a new frame, read-only", ok, a.isa.PFNOf(pte), src, a.isa.PermOf(pte))
	}
	if err := a.Store(1, va, 1); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("store to a migrated read-only page = %v, want ErrSegv", err)
	}
	if b, err := a.Load(0, va); err != nil || b != 0 {
		t.Fatalf("readback %d, %v", b, err)
	}
	a.Destroy(0)
	checkClean(t, m)
}
