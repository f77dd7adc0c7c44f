package core

import (
	"errors"
	"fmt"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func TestMremapGrowMovesData(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
			for i := 0; i < 8; i++ {
				a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x30+i))
			}
			frames := m.Phys.KindFrames(mem.KindAnon)
			nva, err := a.Mremap(0, va, 8*arch.PageSize, 32*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if nva == va {
				t.Fatal("grow did not move")
			}
			// No data copy: same frame count.
			if got := m.Phys.KindFrames(mem.KindAnon); got != frames {
				t.Errorf("mremap copied frames: %d -> %d", frames, got)
			}
			for i := 0; i < 8; i++ {
				b, err := a.Load(0, nva+arch.Vaddr(i*arch.PageSize))
				if err != nil || b != byte(0x30+i) {
					t.Fatalf("moved page %d = %#x, %v", i, b, err)
				}
			}
			// The grown tail is usable on-demand memory.
			if err := a.Store(0, nva+31*arch.PageSize, 1); err != nil {
				t.Fatalf("grown tail: %v", err)
			}
			// The old range is gone.
			if err := a.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
				t.Errorf("old range alive after mremap: %v", err)
			}
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestMremapKeepsPagesMovable: a page a growing Mremap moved is still
// found by migration — its reverse-map hint follows it to the new VA.
func TestMremapKeepsPagesMovable(t *testing.T) {
	const pages = 4
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			daemonOf(m)
			va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x50+i)); err != nil {
					t.Fatal(err)
				}
			}
			migrate := func(at arch.Vaddr) {
				t.Helper()
				pte, _, ok := a.tree.Walk(at)
				if !ok {
					t.Fatalf("%#x not mapped", at)
				}
				if err := m.Phys.MigrateFrame(0, a.isa.PFNOf(pte), 0); err != nil {
					t.Fatalf("MigrateFrame of the page at %#x: %v", at, err)
				}
			}
			migrate(va) // movable before the move
			nva, err := a.Mremap(0, va, pages*arch.PageSize, 4*pages*arch.PageSize)
			if err != nil || nva == va {
				t.Fatalf("grow = %#x, %v", nva, err)
			}
			for i := 0; i < pages; i++ {
				at := nva + arch.Vaddr(i*arch.PageSize)
				migrate(at)
				if b, err := a.Load(0, at); err != nil || b != byte(0x50+i) {
					t.Fatalf("moved page %d after migration = %#x, %v", i, b, err)
				}
			}
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestMremapShrinkInPlace(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 8; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), 1)
	}
	nva, err := a.Mremap(0, va, 8*arch.PageSize, 2*arch.PageSize)
	if err != nil || nva != va {
		t.Fatalf("shrink: %#x, %v", nva, err)
	}
	m.Quiesce() // trimmed frames free after the RCU grace period
	if got := m.Phys.KindFrames(mem.KindAnon); got != 2 {
		t.Errorf("frames after shrink = %d, want 2", got)
	}
	if err := a.Touch(0, va+2*arch.PageSize, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("shrunk tail alive: %v", err)
	}
}

func TestMremapMovesVirtualAndSwapped(t *testing.T) {
	m := newMachine()
	dev := m.Phys.Swap()
	a, _ := New(Options{Machine: m, Protocol: ProtocolAdv})
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	// Page 0: resident with data; page 1: swapped; pages 2-3: unfaulted.
	a.Store(0, va, 0x11)
	a.Store(0, va+arch.PageSize, 0x22)
	if n, err := a.SwapOut(0, va+arch.PageSize, arch.PageSize); err != nil || n != 1 {
		t.Fatalf("swapout: %d, %v", n, err)
	}
	nva, err := a.Mremap(0, va, 4*arch.PageSize, 16*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dev.InUse() != 1 {
		t.Errorf("swap blocks after move = %d (block lost or double-freed)", dev.InUse())
	}
	b0, _ := a.Load(0, nva)
	b1, err1 := a.Load(0, nva+arch.PageSize) // swap-in at the NEW address
	b2, err2 := a.Load(0, nva+2*arch.PageSize)
	if b0 != 0x11 || err1 != nil || b1 != 0x22 || err2 != nil || b2 != 0 {
		t.Fatalf("after move: %#x %#x(%v) %#x(%v)", b0, b1, err1, b2, err2)
	}
	if dev.InUse() != 0 {
		t.Errorf("swap block leaked after swap-in: %d", dev.InUse())
	}
	checkWF(t, a)
}

// TestMremapGrowSplitsHugeLeaf: a growing Mremap moves a huge mapping
// page by page, splitting each huge leaf into 4-KiB leaves over the same
// block, also while a fork child still maps the block. Before, the grow
// failed with "page vanished during mremap".
func TestMremapGrowSplitsHugeLeaf(t *testing.T) {
	const size = 4 << 20
	offs := []arch.Vaddr{0, 3*arch.PageSize + 5, 2<<20 + 77, size - 1}
	for _, p := range protocols {
		for _, fork := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fork=%v", p, fork), func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 16})
				a, err := New(Options{Machine: m, Protocol: p}) // one VA pool: 2-MiB aligned
				if err != nil {
					t.Fatal(err)
				}
				va, err := a.Mmap(0, size, arch.PermRW, mm.FlagHuge2M)
				if err != nil {
					t.Fatal(err)
				}
				for i, off := range offs {
					if err := a.Store(0, va+off, byte(i+1)); err != nil {
						t.Fatal(err)
					}
				}
				c, err := a.Lock(0, va, va+size)
				if err != nil {
					t.Fatal(err)
				}
				var runs []Run
				_ = c.Iterate(va, va+size, func(r Run) error { runs = append(runs, r); return nil })
				c.Close()
				if len(runs) == 0 || runs[0].Status.HugeLevel() != 2 {
					t.Fatalf("before the move the mapping is %+v, want 2-MiB leaves", runs)
				}
				var child *AddrSpace
				if fork {
					forked, err := a.Fork(0)
					if err != nil {
						t.Fatal(err)
					}
					child = forked.(*AddrSpace)
				}
				nva, err := a.Mremap(0, va, size, 2*size)
				if err != nil {
					t.Fatalf("Mremap grow of a huge mapping: %v", err)
				}
				for i, off := range offs {
					if b, err := a.Load(0, nva+off); err != nil || b != byte(i+1) {
						t.Errorf("moved byte %d reads %d, %v; want %d", i, b, err, i+1)
					}
				}
				if err := a.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
					t.Errorf("old range after the move: %v, want ErrSegv", err)
				}
				if child != nil {
					for i, off := range offs {
						if b, err := child.Load(0, va+off); err != nil || b != byte(i+1) {
							t.Errorf("child byte %d reads %d, %v; want %d", i, b, err, i+1)
						}
					}
					checkQuiet(t, child)
					child.Destroy(0)
				}
				checkQuiet(t, a)
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}

func TestMremapPreservesCOW(t *testing.T) {
	a, m := newSpace(t, ProtocolRW)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	a.Store(0, va, 7)
	childMM, _ := a.Fork(0)
	child := childMM.(*AddrSpace)
	// Parent moves its mapping; the COW relationship must survive.
	nva, err := a.Mremap(0, va, arch.PageSize, 4*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, nva, 8); err != nil { // COW break at the new address
		t.Fatal(err)
	}
	cb, _ := child.Load(1, va)
	pb, _ := a.Load(0, nva)
	if cb != 7 || pb != 8 {
		t.Errorf("child=%d parent=%d", cb, pb)
	}
	child.Destroy(1)
	a.Destroy(0)
	checkClean(t, m)
}

func TestMremapBadArgs(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	if _, err := a.Mremap(0, 0x1001, arch.PageSize, arch.PageSize); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("unaligned: %v", err)
	}
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	if _, err := a.Mremap(0, va, arch.PageSize, 0); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("zero size: %v", err)
	}
}

// TestMremapAfterOOMKill: growing allocates, so a space the OOM killer
// tore down must refuse it; shrinking is a release and still works.
func TestMremapAfterOOMKill(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			va, err := a.Mmap(0, 4*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			if a.oomTeardown(0) == 0 {
				t.Fatal("teardown released nothing")
			}
			if _, err := a.Mremap(0, va, 4*arch.PageSize, 64*arch.PageSize); !errors.Is(err, ErrOOMKilled) {
				t.Fatalf("grow of a killed space = %v, want ErrOOMKilled", err)
			}
			if regs, _ := a.Regions(0); len(regs) != 0 {
				t.Fatalf("killed space holds %v", regs)
			}
			if nva, err := a.Mremap(0, va, 4*arch.PageSize, arch.PageSize); err != nil || nva != va {
				t.Fatalf("shrink of a killed space = %#x, %v", nva, err)
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestMremapFailedGrowLeavesOldMapping: a grow that runs out of memory
// halfway — after some pages moved, when the grown tail needs a PT page
// — puts everything back: the old mapping reads as before, the new range
// holds nothing, and its VA is handed out again by the next grow.
func TestMremapFailedGrowLeavesOldMapping(t *testing.T) {
	const pages = 8
	for _, p := range protocols {
		for _, site := range []*fault.Site{fault.PTAllocPage, fault.MemAllocFrame} {
			t.Run(p.String()+"/"+site.Name(), func(t *testing.T) {
				defer fault.DisarmAll()
				a, m := newSpace(t, p)
				va, _ := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
				for i := 0; i < pages; i++ {
					a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(0x40+i))
				}
				site.Arm(fault.Config{Seed: 1})
				_, err := a.Mremap(0, va, pages*arch.PageSize, 2*arch.SpanBytes(2))
				site.Disarm()
				if !errors.Is(err, mem.ErrOutOfMemory) {
					t.Fatalf("grow with %s armed = %v, want an OOM-class error", site.Name(), err)
				}
				for i := 0; i < pages; i++ {
					if b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize)); err != nil || b != byte(0x40+i) {
						t.Fatalf("old page %d after the failed grow = %#x, %v", i, b, err)
					}
				}
				regs, _ := a.Regions(0)
				if len(regs) != 1 || regs[0].Start != va || regs[0].Size() != pages*arch.PageSize || regs[0].Resident != pages {
					t.Fatalf("regions after the failed grow = %v, want just the old mapping", regs)
				}
				checkQuiet(t, a)
				nva, err := a.Mremap(0, va, pages*arch.PageSize, 2*arch.SpanBytes(2))
				if err != nil || nva != va+pages*arch.PageSize {
					t.Fatalf("retried grow = %#x, %v; want the freed VA %#x", nva, err, va+pages*arch.PageSize)
				}
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}

// TestMremapNotWhollyMapped: growing a range with a page that nothing
// allocated fails with mm.ErrSegv (Linux's EFAULT) and changes nothing:
// no page moves, nothing is mapped at a new range and its VA is handed
// out again. Each hole is smaller than the grown range and has a mapped
// page above it, so the grow's new range cannot take the hole's own VA
// (which would be refused first, as an overlap).
func TestMremapNotWhollyMapped(t *testing.T) {
	const pg = arch.PageSize
	cases := []struct {
		name          string
		mapped, hole  int // pages mmapped, then [hole, hole+holeN) unmapped
		holeN         int
		oldPage, oldN int // the range grown, in pages of the mapping
		newN          int
	}{
		{"unmapped-page", 3, 1, 1, 1, 1, 2},
		{"half-mapped", 4, 0, 2, 0, 4, 8},
	}
	for _, p := range protocols {
		for _, tc := range cases {
			t.Run(p.String()+"/"+tc.name, func(t *testing.T) {
				a, m := newSpace(t, p)
				va, err := a.Mmap(0, uint64(tc.mapped)*pg, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < tc.mapped; i++ {
					if err := a.Store(0, va+arch.Vaddr(i)*pg, byte(0x30+i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := a.Munmap(0, va+arch.Vaddr(tc.hole)*pg, uint64(tc.holeN)*pg); err != nil {
					t.Fatal(err)
				}
				newSize := uint64(tc.newN) * pg
				probe, err := a.Mmap(0, newSize, arch.PermRW, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Munmap(0, probe, newSize); err != nil {
					t.Fatal(err)
				}
				before, _ := a.Regions(0)

				old := va + arch.Vaddr(tc.oldPage)*pg
				if nva, err := a.Mremap(0, old, uint64(tc.oldN)*pg, newSize); !errors.Is(err, mm.ErrSegv) {
					t.Fatalf("grow of a range not wholly mapped = %#x, %v; want mm.ErrSegv", nva, err)
				}
				if after, _ := a.Regions(0); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("regions after the refused grow = %v, want %v", after, before)
				}
				for i := 0; i < tc.mapped; i++ {
					b, err := a.Load(0, va+arch.Vaddr(i)*pg)
					if inHole := i >= tc.hole && i < tc.hole+tc.holeN; inHole {
						if !errors.Is(err, mm.ErrSegv) {
							t.Errorf("unmapped page %d reads %#x, %v; want mm.ErrSegv", i, b, err)
						}
					} else if err != nil || b != byte(0x30+i) {
						t.Errorf("page %d after the refused grow = %#x, %v; want %#x", i, b, err, 0x30+i)
					}
				}
				if again, err := a.Mmap(0, newSize, arch.PermRW, 0); err != nil || again != probe {
					t.Errorf("mmap after the refused grow = %#x, %v; want its freed VA %#x", again, err, probe)
				}
				checkQuiet(t, a)
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}
