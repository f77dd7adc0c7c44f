package core

import (
	"errors"
	"math/rand"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// TestHugeTLBSpanLookupMM is the end-to-end tentpole property at the MM
// level: one access through a 2-MiB leaf fills the TLB's huge array, so
// every 4-KiB offset of the span hits without further walks; a 4-KiB
// unmap inside the span (which splits the leaf) kills the whole cached
// span on every core; and the post-split full teardown (clearLeafTable's
// single 2-MiB flush record) leaves nothing stale either.
func TestHugeTLBSpanLookupMM(t *testing.T) {
	a, m := newSpaceTLB(t, tlb.ModeSync)
	span := uint64(arch.SpanBytes(2))
	// First allocation from core 0's arena starts at UserLo: span-aligned.
	va, err := a.Mmap(0, span, arch.PermRW, mm.FlagHuge2M)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(3, va+5*arch.PageSize, 9); err != nil {
		t.Fatal(err)
	}
	asid := a.ASID()
	st0 := m.TLB.Stats()
	pages := span / arch.PageSize
	for p := uint64(0); p < pages; p++ {
		if _, ok := m.TLB.Lookup(3, asid, va+arch.Vaddr(p)*arch.PageSize); !ok {
			t.Fatalf("huge span missed at page %d", p)
		}
	}
	st := m.TLB.Stats()
	if hh := st.HugeHits - st0.HugeHits; hh != pages {
		t.Errorf("huge hits = %d, want %d", hh, pages)
	}
	if rate := float64(st.Hits-st0.Hits) / float64(st.Lookups-st0.Lookups); rate < 0.99 {
		t.Errorf("huge-backed hit rate = %.3f, want >= 0.99", rate)
	}

	// A 4-KiB unmap inside the span splits the leaf and must invalidate
	// the cached span on core 3 even though its record is one page wide.
	if err := a.Munmap(0, va+17*arch.PageSize, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{0, 17, 100, pages - 1} {
		if _, ok := m.TLB.Lookup(3, asid, va+arch.Vaddr(p)*arch.PageSize); ok {
			t.Fatalf("stale huge translation at page %d after 4-KiB unmap", p)
		}
	}
	if err := a.Touch(3, va+17*arch.PageSize, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("unmapped page accessible through stale span: %v", err)
	}
	// The split leaves the rest mapped: re-faulting caches 4-KiB entries.
	if b, err := a.Load(3, va+5*arch.PageSize); err != nil || b != 9 {
		t.Fatalf("post-split read = %d, %v", b, err)
	}

	// Full teardown of the now-split table goes through clearLeafTable's
	// single span-wide flush record; nothing may survive on core 3.
	if err := a.Munmap(0, va, span); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{0, 5, 100, pages - 1} {
		if _, ok := m.TLB.Lookup(3, asid, va+arch.Vaddr(p)*arch.PageSize); ok {
			t.Fatalf("stale translation at page %d after full teardown", p)
		}
	}
	m.Quiesce()
	a.Destroy(0)
}

// TestSparseUnmapChunkedRCU pins the freed-run spill: a giant sparse
// unmap (fault order shuffled so PFN runs cannot coalesce) must chunk
// its RCU hand-off instead of growing the run list without bound, and
// no frame may be freed while a concurrent reader holds an RCU read
// section spanning the whole unmap.
func TestSparseUnmapChunkedRCU(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14, TLBMode: tlb.ModeSync, TickEvery: 8})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(pages) {
		if err := a.Store(0, va+arch.Vaddr(i)*arch.PageSize, byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	var pfns []arch.PFN
	for i := 0; i < pages; i += 64 {
		tr, ok := a.tree.WalkAccess(va+arch.Vaddr(i)*arch.PageSize, pt.AccessRead)
		if !ok {
			t.Fatalf("page %d not resident", i)
		}
		pfns = append(pfns, tr.PFN)
	}

	// Reader on core 1 holds one RCU section across the whole unmap.
	m.RCU.ReadLock(1)
	c, err := a.Lock(0, va, va+pages*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	d0 := m.RCU.Stats().Deferred
	if err := c.Unmap(va, va+pages*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := len(c.freed); got >= freedSpillRuns {
		t.Errorf("freed run list grew to %d, spill cap is %d", got, freedSpillRuns)
	}
	// ~1024 uncoalesced runs over a 256-run cap means several mid-walk
	// spills, each its own RCU defer, before Close's final one.
	if d := m.RCU.Stats().Deferred - d0; d < 2 {
		t.Errorf("unmap produced %d chunked defers, want >= 2", d)
	}
	c.Close()

	// The reader's section is still open: none of the sampled frames may
	// have been recycled.
	for _, pfn := range pfns {
		if k := m.Phys.Desc(pfn).Kind; k == mem.KindFree {
			t.Fatalf("frame %#x freed while a reader held an RCU section", pfn)
		}
	}
	m.RCU.ReadUnlock(1)
	m.Quiesce()
	for _, pfn := range pfns {
		if k := m.Phys.Desc(pfn).Kind; k != mem.KindFree {
			t.Fatalf("frame %#x still %v after reader exit and quiesce", pfn, k)
		}
	}
	a.Destroy(0)
}
