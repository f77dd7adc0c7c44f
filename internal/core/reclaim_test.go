package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func newSwapSpace(t *testing.T) (*AddrSpace, *cpusim.Machine, *mem.BlockDev) {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 14})
	dev := m.Phys.Swap()
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	return a, m, dev
}

// TestSwapOutIsTheSweepWithoutSecondChance: SwapOut runs the sweep's
// eviction body with the A bits cleared first, so a hot huge span is
// demoted by the first call (same frames, same bytes, nothing evicted)
// and evicted whole by the second; a range that cuts through the huge
// leaf leaves it alone.
func TestSwapOutIsTheSweepWithoutSecondChance(t *testing.T) {
	a, m, dev := newSwapSpace(t)
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
	swapOut := func(va arch.Vaddr, size uint64, want int, demotions uint64, level int) {
		t.Helper()
		if _, err := a.Load(0, base); err != nil { // hot again before every call
			t.Fatal(err)
		}
		if n, err := a.SwapOut(0, va, size); err != nil || n != want {
			t.Fatalf("SwapOut = %d, %v; want %d", n, err, want)
		}
		if d := a.Stats().Demotions.Load(); d != demotions {
			t.Fatalf("demotions = %d, want %d", d, demotions)
		}
		if _, l, ok := a.tree.Walk(base + arch.PageSize); ok && l != level || !ok && level != 0 {
			t.Fatalf("page 1 mapped=%v at level %d, want level %d", ok, l, level)
		}
	}
	swapOut(base+arch.PageSize, span-arch.PageSize, 0, 0, 2) // cuts the leaf: untouched
	swapOut(base, span, 0, 1, 1)                             // demoted, resident
	swapOut(base, span, arch.PTEntries, 1, 0)                // evicted
	if dev.InUse() != arch.PTEntries {
		t.Errorf("swap blocks in use = %d, want %d", dev.InUse(), arch.PTEntries)
	}
	for off := uint64(0); off < span; off += arch.PageSize {
		if v, err := a.Load(0, base+arch.Vaddr(off)); err != nil || v != byte(off/arch.PageSize) {
			t.Fatalf("page at +%#x: %d, %v", off, v, err)
		}
	}
	checkQuiet(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

// TestReclaimClockSecondChance: the first sweep only clears A bits (all
// pages were just touched); the second sweep reclaims untouched pages
// but spares the ones re-accessed in between.
func TestReclaimClockSecondChance(t *testing.T) {
	a, m, dev := newSwapSpace(t)
	defer a.Destroy(0)
	const pages = 16
	va, _ := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < pages; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i))
	}
	// Sweep 1: everything recently accessed -> nothing reclaimed.
	n, err := a.ReclaimRange(0, va, pages*arch.PageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("first sweep reclaimed %d pages despite set A bits", n)
	}
	// Re-touch the first four pages only.
	for i := 0; i < 4; i++ {
		if err := a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessRead); err != nil {
			t.Fatal(err)
		}
	}
	// Sweep 2: the cold 12 pages go to swap; the hot 4 stay.
	n, err = a.ReclaimRange(0, va, pages*arch.PageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	if n != pages-4 {
		t.Fatalf("second sweep reclaimed %d, want %d", n, pages-4)
	}
	if dev.InUse() != pages-4 {
		t.Fatalf("swap blocks = %d", dev.InUse())
	}
	// Hot pages still resident (no fault needed): check via query.
	c, _ := a.Lock(0, va, va+pages*arch.PageSize)
	for i := 0; i < 4; i++ {
		st, _ := c.Query(va + arch.Vaddr(i*arch.PageSize))
		if st.Kind != pt.StatusMapped {
			t.Errorf("hot page %d evicted (%v)", i, st.Kind)
		}
	}
	for i := 4; i < pages; i++ {
		st, _ := c.Query(va + arch.Vaddr(i*arch.PageSize))
		if st.Kind != pt.StatusSwapped {
			t.Errorf("cold page %d not swapped (%v)", i, st.Kind)
		}
	}
	c.Close()
	// Data survives the round trip.
	for i := 0; i < pages; i++ {
		b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize))
		if err != nil || b != byte(i) {
			t.Fatalf("page %d after reclaim = %d, %v", i, b, err)
		}
	}
	m.Quiesce()
	checkWF(t, a)
}

func TestReclaimHonoursTarget(t *testing.T) {
	a, _, dev := newSwapSpace(t)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 8; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), 1)
	}
	a.ReclaimRange(0, va, 8*arch.PageSize, 8) // clears A bits
	n, err := a.ReclaimRange(0, va, 8*arch.PageSize, 3)
	if err != nil || n != 3 {
		t.Fatalf("reclaimed %d, %v; want 3", n, err)
	}
	if dev.InUse() != 3 {
		t.Errorf("blocks = %d", dev.InUse())
	}
}

func TestReclaimSkipsSharedAndCOW(t *testing.T) {
	a, _, _ := newSwapSpace(t)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	a.Store(0, va, 1)
	child, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	a.ReclaimRange(0, va, arch.PageSize, 1) // clear A
	n, err := a.ReclaimRange(0, va, arch.PageSize, 1)
	if err != nil || n != 0 {
		t.Errorf("reclaimed %d COW pages, %v", n, err)
	}
	child.Destroy(1)
	a.Destroy(0)
}

// TestARM64EndToEnd runs the full MM stack on the AArch64 codec —
// mmap, COW fork, swap round trip — demonstrating the §4.5 claim that
// the ARM port needs nothing beyond the PTE codec.
func TestARM64EndToEnd(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 14})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, ISA: arch.ARM64()})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 4; i++ {
		if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x60+i)); err != nil {
			t.Fatal(err)
		}
	}
	childMM, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := childMM.(*AddrSpace)
	child.Store(1, va, 0x77)
	pb, _ := a.Load(0, va)
	cb, _ := child.Load(1, va)
	if pb != 0x60 || cb != 0x77 {
		t.Errorf("arm64 COW: parent=%#x child=%#x", pb, cb)
	}
	if n, err := a.SwapOut(0, va+arch.PageSize, arch.PageSize); err != nil || n != 1 {
		// After fork the page is COW; swap skips it. Break COW first.
		a.Store(0, va+arch.PageSize, 0x61)
		if n2, err2 := a.SwapOut(0, va+arch.PageSize, arch.PageSize); err2 != nil || n2 != 1 {
			t.Fatalf("arm64 swapout n=%d/%d err=%v/%v", n, n2, err, err2)
		}
	}
	b, err := a.Load(0, va+arch.PageSize)
	if err != nil || b != 0x61 {
		t.Fatalf("arm64 swap-in = %#x, %v", b, err)
	}
	checkWF(t, a)
	checkWF(t, child)
	child.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

// TestSwapOutSkipsCOWBrokenFilePage: a private copy of a file page keeps
// the file page as its origin beside its PTE, and a Swapped word has no
// room for it, so eviction leaves the page resident — it counts as
// file-backed — and MADV_DONTNEED still drops it back to the file's
// byte. It used to be swapped out like any anonymous page, losing its
// file for good.
func TestSwapOutSkipsCOWBrokenFilePage(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			dev := m.Phys.Swap()
			f := mem.NewFile(m.Phys, "f", arch.PageSize)
			sh, err := a.MmapFile(0, f, 0, arch.PageSize, arch.PermRW, true)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := a.MmapFile(0, f, 0, arch.PageSize, arch.PermRW, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, sh, 55); err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, pr, 9); err != nil {
				t.Fatal(err)
			}
			if n, err := a.SwapOut(0, pr, arch.PageSize); err != nil || n != 0 {
				t.Errorf("SwapOut of a COW-broken private file page = %d, %v; want 0", n, err)
			}
			if b, err := a.Load(0, pr); err != nil || b != 9 || dev.InUse() != 0 {
				t.Errorf("after SwapOut the copy reads %d, %v with %d blocks in use; want 9 and none", b, err, dev.InUse())
			}
			if err := a.MadviseDontNeed(0, pr, arch.PageSize); err != nil {
				t.Fatal(err)
			}
			if b, err := a.Load(0, pr); err != nil || b != 55 {
				t.Errorf("after DONTNEED the page reads %d, %v; want the file's 55", b, err)
			}
			checkRegistrations(t, m.Phys, []*mem.File{f}, a)
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}
