package tlb

import (
	"sync"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
)

func trL(pfn arch.PFN, level int) pt.Translation {
	return pt.Translation{PFN: pfn, Perm: arch.PermRW, Level: level}
}

// TestHugeLookupAllOffsets is the tentpole property: one fill of a
// 2-MiB leaf makes Lookup hit at every 4-KiB offset in the span, with
// the PFN rebased per page. The fill goes through an interior page, as
// the fault path does (pt.WalkAccess returns the page-adjusted PFN).
func TestHugeLookupAllOffsets(t *testing.T) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 3 * span
	const basePFN = 1 << 20
	m.Insert(0, 1, base+7*arch.PageSize, trL(basePFN+7, 2))
	pages := uint64(span) / arch.PageSize
	for p := uint64(0); p < pages; p++ {
		got, ok := m.Lookup(0, 1, base+arch.Vaddr(p)*arch.PageSize)
		if !ok || got.PFN != basePFN+arch.PFN(p) || got.Level != 2 {
			t.Fatalf("page %d: got %+v ok=%v, want PFN %#x level 2", p, got, ok, basePFN+arch.PFN(p))
		}
	}
	st := m.Stats()
	if st.HugeHits != pages {
		t.Errorf("HugeHits = %d, want %d", st.HugeHits, pages)
	}
	if rate := st.HitRate(); rate < 0.99 {
		t.Errorf("hit rate = %.3f, want >= 0.99", rate)
	}
}

// TestHugeLookup1G does the same for a 1-GiB leaf, sampling offsets.
func TestHugeLookup1G(t *testing.T) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(3))
	base := 2 * span
	const basePFN = 1 << 24
	m.Insert(0, 1, base, trL(basePFN, 3))
	pages := uint64(span) / arch.PageSize
	for p := uint64(0); p < pages; p += 4093 { // coprime stride samples the span
		got, ok := m.Lookup(0, 1, base+arch.Vaddr(p)*arch.PageSize)
		if !ok || got.PFN != basePFN+arch.PFN(p) || got.Level != 3 {
			t.Fatalf("page %d: got %+v ok=%v", p, got, ok)
		}
	}
	// A 2-MiB probe at the same base must not alias the 1-GiB entry...
	m.cores[0].invalidateLocal(Invalidation{ASID: 1, All: true})
	if _, ok := m.Lookup(0, 1, base); ok {
		t.Fatal("entry survived full-ASID flush")
	}
	// ...and vice versa: a 2-MiB entry at a 1-GiB-aligned base keeps its
	// own level.
	m.Insert(0, 1, base, trL(500, 2))
	got, ok := m.Lookup(0, 1, base+arch.Vaddr(arch.SpanBytes(2)))
	if ok {
		t.Fatalf("2-MiB entry served a lookup one 2-MiB span away: %+v", got)
	}
	if got, ok := m.Lookup(0, 1, base+arch.PageSize); !ok || got.Level != 2 || got.PFN != 501 {
		t.Fatalf("2-MiB entry at 1-GiB-aligned base: got %+v ok=%v", got, ok)
	}
}

// TestHugeOverlapInvalidation checks span-aware generation validation:
// any remote invalidation record overlapping the huge span — even a
// single 4-KiB page — kills the whole entry, while disjoint records
// leave it alone.
func TestHugeOverlapInvalidation(t *testing.T) {
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 5 * span
	cases := []struct {
		name   string
		lo, hi arch.Vaddr
		kills  bool
	}{
		{"page-inside", base + 9*arch.PageSize, base + 10*arch.PageSize, true},
		{"straddle-lo", base - 4*arch.PageSize, base + arch.PageSize, true},
		{"straddle-hi", base + span - arch.PageSize, base + span + arch.PageSize, true},
		{"exact-span", base, base + span, true},
		{"enclosing", base - span, base + 2*span, true},
		{"before", base - 8*arch.PageSize, base, false},
		{"after", base + span, base + span + 8*arch.PageSize, false},
	}
	offsets := []arch.Vaddr{0, arch.PageSize, span / 2, span - arch.PageSize}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(2, ModeSync)
			m.Insert(1, 1, base, trL(900, 2))
			m.ShootdownRange(0, 1, tc.lo, tc.hi)
			for _, off := range offsets {
				_, ok := m.Lookup(1, 1, base+off)
				if tc.kills && ok {
					t.Fatalf("offset %#x survived overlapping invalidation [%#x,%#x)", off, tc.lo, tc.hi)
				}
				if !tc.kills && !ok {
					t.Fatalf("offset %#x wrongly dropped by disjoint invalidation [%#x,%#x)", off, tc.lo, tc.hi)
				}
			}
		})
	}
}

// TestHugePreciseClear covers the owning core's precise paths: both a
// single-page Shootdown initiated locally and a one-page FlushLocal
// must clear a containing huge entry (the post-split small-unmap case —
// splitting a huge leaf itself issues no flush, so the later precise
// invalidation is the only thing standing between the stale span entry
// and a freed frame).
func TestHugePreciseClear(t *testing.T) {
	span := arch.Vaddr(arch.SpanBytes(2))
	base := 7 * span

	m := NewMachine(1, ModeSync)
	m.Insert(0, 1, base, trL(900, 2))
	m.FlushLocal(0, 1, base+13*arch.PageSize)
	if _, ok := m.Lookup(0, 1, base); ok {
		t.Fatal("huge entry survived FlushLocal of an interior page")
	}

	m.Insert(0, 1, base, trL(900, 2))
	m.ShootdownRange(0, 1, base+100*arch.PageSize, base+101*arch.PageSize)
	if _, ok := m.Lookup(0, 1, base+arch.PageSize); ok {
		t.Fatal("huge entry survived local single-page shootdown")
	}

	// Precise range path (within preciseLimit) on the initiator.
	m.Insert(0, 1, base, trL(900, 2))
	m.cores[0].invalidateLocal(Invalidation{ASID: 1, Lo: base + 8*arch.PageSize, Hi: base + 12*arch.PageSize})
	if _, ok := m.Lookup(0, 1, base+span-arch.PageSize); ok {
		t.Fatal("huge entry survived precise local range flush")
	}
}

// TestRingBurstNoStaleDrops pins the widened invalidation ring: a burst
// of 16 disjoint range shootdowns between two lookups of the same entry
// replays precisely (zero staledrops). With the old 8-deep ring the
// history wrapped and the entry was conservatively discarded.
func TestRingBurstNoStaleDrops(t *testing.T) {
	m := NewMachine(2, ModeSync)
	m.Insert(1, 1, 0x1000, tr(1))
	for i := 0; i < 16; i++ {
		lo := arch.Vaddr(0x4000000 + i*64*0x1000)
		m.ShootdownRange(0, 1, lo, lo+(preciseLimit+1)*arch.PageSize)
	}
	if _, ok := m.Lookup(1, 1, 0x1000); !ok {
		t.Fatal("entry lost: 16-range burst wrapped the invalidation ring")
	}
	if sd := m.Stats().StaleDrops; sd != 0 {
		t.Fatalf("staledrops = %d after 16-range burst, want 0", sd)
	}
}

// TestPreciseLimit pins the fixed precise-vs-bump rule: a local range of
// preciseLimit pages clears its slots without a generation bump, one
// page more is a single bump whose ring record spares disjoint entries.
func TestPreciseLimit(t *testing.T) {
	m := NewMachine(1, ModeSync)
	const inside, outside = arch.Vaddr(0x10000), arch.Vaddr(0x40000000)
	m.Insert(0, 1, inside, tr(1))
	m.Insert(0, 1, outside, tr(2))

	bumps := m.Stats().GenBumps
	m.cores[0].invalidateLocal(Invalidation{ASID: 1, Lo: inside, Hi: inside + 4*arch.PageSize})
	if d := m.Stats().GenBumps - bumps; d != 0 {
		t.Fatalf("4-page range: %d generation bumps, want 0 (precise clear)", d)
	}
	if _, ok := m.Lookup(0, 1, inside); ok {
		t.Fatal("4-page range: covered entry survived the precise clear")
	}

	m.Insert(0, 1, inside, tr(1))
	bumps = m.Stats().GenBumps
	m.cores[0].invalidateLocal(Invalidation{ASID: 1, Lo: inside, Hi: inside + 5*arch.PageSize})
	if d := m.Stats().GenBumps - bumps; d != 1 {
		t.Fatalf("5-page range: %d generation bumps, want 1", d)
	}
	if _, ok := m.Lookup(0, 1, inside); ok {
		t.Fatal("5-page range: covered entry survived the bump")
	}
	if _, ok := m.Lookup(0, 1, outside); !ok {
		t.Fatal("5-page range: disjoint entry lost to the bump")
	}
}

// TestHugeConcurrentShootdowns exercises the huge array under -race
// with concurrent fills and shootdowns: while background cores churn
// their own caches with huge inserts and span shootdowns on another
// ASID, a one-page remote shootdown must always kill the probe core's
// whole huge span.
func TestHugeConcurrentShootdowns(t *testing.T) {
	m := NewMachine(4, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, core := range []int{1, 2} {
		core := core
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := span * arch.Vaddr(1+i%8)
				m.Insert(core, 2, b+arch.Vaddr(i%512)*arch.PageSize, trL(arch.PFN(4096+i%512), 2))
				if i%4 == 0 {
					m.ShootdownRange(core, 2, b, b+span)
				}
				m.Lookup(core, 2, b+arch.Vaddr(i*7%512)*arch.PageSize)
			}
		}()
	}
	base := 100 * span
	offsets := []arch.Vaddr{0, span / 2, span - arch.PageSize}
	for iter := 0; iter < 300; iter++ {
		m.Insert(3, 1, base, trL(1000, 2))
		page := base + arch.Vaddr(iter%512)*arch.PageSize
		m.ShootdownRange(0, 1, page, page+arch.PageSize)
		for _, off := range offsets {
			if _, ok := m.Lookup(3, 1, base+off); ok {
				t.Fatalf("iter %d: offset %#x survived remote one-page shootdown", iter, off)
			}
		}
	}
	close(stop)
	wg.Wait()
}
