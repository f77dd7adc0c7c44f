package core

import (
	"errors"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// protocols under test; most tests run against both.
var protocols = []Protocol{ProtocolRW, ProtocolAdv}

func newSpace(t *testing.T, p Protocol) (*AddrSpace, *cpusim.Machine) {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 15})
	a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: true})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

// checkClean verifies the no-leak invariant after teardown.
func checkClean(t *testing.T, m *cpusim.Machine) {
	t.Helper()
	if err := m.CheckClean(); err != nil {
		t.Error(err)
	}
}

// checkWF asserts the Figure-12 well-formedness invariant.
func checkWF(t *testing.T, a *AddrSpace) {
	t.Helper()
	a.m.Quiesce()
	if err := a.tree.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness violated: %v", err)
	}
}

func TestMmapTouchMunmap(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			va, err := a.Mmap(0, 16*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			// On-demand: nothing mapped yet.
			if m.Phys.KindFrames(mem.KindAnon) != 0 {
				t.Error("mmap eagerly allocated frames")
			}
			for i := 0; i < 16; i++ {
				if err := a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite); err != nil {
					t.Fatalf("touch page %d: %v", i, err)
				}
			}
			if got := m.Phys.KindFrames(mem.KindAnon); got != 16 {
				t.Errorf("after faults: %d anon frames, want 16", got)
			}
			if got := a.stats.PageFaults.Load(); got != 16 {
				t.Errorf("page faults = %d, want 16", got)
			}
			checkWF(t, a)
			if err := a.Munmap(0, va, 16*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			// Unmapped: access faults with SEGV.
			if err := a.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
				t.Errorf("touch after munmap: %v, want SEGV", err)
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestQueryStatuses(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
			c, err := a.Lock(0, va, va+4*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			st, _ := c.Query(va)
			if st.Kind != pt.StatusPrivateAnon || st.Perm != arch.PermRW {
				t.Errorf("pre-fault query = %+v", st)
			}
			c.Close()
			if err := a.Touch(0, va, pt.AccessWrite); err != nil {
				t.Fatal(err)
			}
			c, _ = a.Lock(0, va, va+4*arch.PageSize)
			st, _ = c.Query(va)
			if st.Kind != pt.StatusMapped {
				t.Errorf("post-fault query = %+v", st)
			}
			st2, _ := c.Query(va + arch.PageSize)
			if st2.Kind != pt.StatusPrivateAnon {
				t.Errorf("untouched page = %+v", st2)
			}
			c.Close()
		})
	}
}

func TestSegvOutsideMapping(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	if err := a.Touch(0, 0xdead000, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("unmapped access: %v", err)
	}
	// Write to read-only mapping.
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRead, 0)
	if err := a.Touch(0, va, pt.AccessRead); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch(0, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("write to RO page: %v", err)
	}
	// Exec on non-exec mapping.
	if err := a.Touch(0, va, pt.AccessExec); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("exec on NX page: %v", err)
	}
}

func TestMmapFixedCollision(t *testing.T) {
	a, _ := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	base := arch.Vaddr(0x10000000)
	if err := a.MmapFixed(0, base, 8*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	err := a.MmapFixed(0, base+4*arch.PageSize, 8*arch.PageSize, arch.PermRW, 0)
	if !errors.Is(err, mm.ErrExists) {
		t.Errorf("overlapping fixed mmap: %v", err)
	}
	if err := a.MmapFixed(0, base+8*arch.PageSize, 8*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Errorf("adjacent fixed mmap: %v", err)
	}
}

func TestBadRanges(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	if err := a.Munmap(0, 0x1001, arch.PageSize); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("unaligned munmap: %v", err)
	}
	if err := a.Mprotect(0, 0x1000, 7, arch.PermRead); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("unaligned mprotect: %v", err)
	}
	if _, err := a.Lock(0, 0x2000, 0x1000); err == nil {
		t.Error("inverted range locked")
	}
}

func TestLoadStoreData(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, 2*arch.PageSize, arch.PermRW, 0)
			if err := a.Store(0, va+123, 0x5A); err != nil {
				t.Fatal(err)
			}
			b, err := a.Load(0, va+123)
			if err != nil || b != 0x5A {
				t.Fatalf("load = %#x, %v", b, err)
			}
			// Fresh anonymous page reads as zero.
			z, err := a.Load(0, va+arch.PageSize)
			if err != nil || z != 0 {
				t.Fatalf("fresh page = %#x, %v", z, err)
			}
		})
	}
}

func TestMprotect(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, _ := newSpace(t, p)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
			// Touch two pages so both mapped and virtual pages are protected.
			a.Touch(0, va, pt.AccessWrite)
			if err := a.Mprotect(0, va, 4*arch.PageSize, arch.PermRead); err != nil {
				t.Fatal(err)
			}
			if err := a.Touch(0, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
				t.Errorf("write to mprotected mapped page: %v", err)
			}
			if err := a.Touch(0, va+arch.PageSize, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
				t.Errorf("write to mprotected virtual page: %v", err)
			}
			if err := a.Touch(0, va, pt.AccessRead); err != nil {
				t.Errorf("read after mprotect: %v", err)
			}
			// Back to RW; exclusively owned pages become writable again.
			if err := a.Mprotect(0, va, 4*arch.PageSize, arch.PermRW); err != nil {
				t.Fatal(err)
			}
			if err := a.Touch(0, va, pt.AccessWrite); err != nil {
				t.Errorf("write after re-protect: %v", err)
			}
			checkWF(t, a)
		})
	}
}

func TestUnmapVirtOnlyCheap(t *testing.T) {
	// unmap-virt (Table 3): unmapping a region never backed by frames.
	// With upper-level status compression a 1-GiB region costs O(1)
	// entries, so the PT page count must stay tiny.
	a, m := newSpace(t, ProtocolAdv)
	size := arch.SpanBytes(3) // 1 GiB
	va, err := a.Mmap(0, size, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.tree.PTPageCount.Load(); got > 8 {
		t.Errorf("1-GiB virtual mmap used %d PT pages; compression broken", got)
	}
	if err := a.Munmap(0, va, size); err != nil {
		t.Fatal(err)
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

func TestPartialMunmapSplits(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			va, _ := a.Mmap(0, 16*arch.PageSize, arch.PermRW, 0)
			for i := 0; i < 16; i++ {
				a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite)
			}
			// Unmap the middle 8 pages.
			if err := a.Munmap(0, va+4*arch.PageSize, 8*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			m.Quiesce() // unmapped frames free after the RCU grace period
			if got := m.Phys.KindFrames(mem.KindAnon); got != 8 {
				t.Errorf("frames after partial unmap = %d, want 8", got)
			}
			if err := a.Touch(0, va+5*arch.PageSize, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
				t.Error("unmapped middle still accessible")
			}
			if err := a.Touch(0, va, pt.AccessRead); err != nil {
				t.Errorf("head of split mapping: %v", err)
			}
			if err := a.Touch(0, va+15*arch.PageSize, pt.AccessRead); err != nil {
				t.Errorf("tail of split mapping: %v", err)
			}
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

func TestHugePageMapping(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 16})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.Mmap(0, 4<<20, arch.PermRW, mm.FlagHuge2M) // 4 MiB = 2 huge pages
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Touch(0, va+123, pt.AccessWrite); err != nil {
		t.Fatal(err)
	}
	// One fault maps the whole 2-MiB span.
	if err := a.Touch(0, va+1<<20, pt.AccessWrite); err != nil {
		t.Fatal(err)
	}
	if got := a.stats.PageFaults.Load(); got != 1 {
		t.Errorf("faults = %d, want 1 (huge mapping)", got)
	}
	if got := m.Phys.KindFrames(mem.KindAnon); got != 512 {
		t.Errorf("anon frames = %d, want 512", got)
	}
	checkWF(t, a)
	// Partial unmap of a huge page forces a split.
	if err := a.Munmap(0, va, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Error("unmapped huge half accessible")
	}
	if err := a.Touch(0, va+1<<20+5, pt.AccessRead); err != nil {
		t.Errorf("kept huge half: %v", err)
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

func TestHugeDataIntegrity(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 16})
	a, _ := New(Options{Machine: m, Protocol: ProtocolRW})
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 2<<20, arch.PermRW, mm.FlagHuge2M)
	// Write through a huge mapping, then split it, then read back.
	if err := a.Store(0, va+1234567, 0x77); err != nil {
		t.Fatal(err)
	}
	if err := a.Munmap(0, va, arch.PageSize); err != nil { // forces split
		t.Fatal(err)
	}
	b, err := a.Load(0, va+1234567)
	if err != nil || b != 0x77 {
		t.Fatalf("data after split = %#x, %v", b, err)
	}
}

func TestTable2FeatureMatrix(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	f := a.Features()
	want := mm.Features{
		OnDemandPaging: true, COW: true, PageSwapping: true,
		ReverseMapping: true, MmapedFile: true, HugePage: true,
		NUMAPolicy: true, // beyond the paper's row: see the placement check below
	}
	if f != want {
		t.Errorf("CortenMM feature row = %+v, want %+v (Table 2)", f, want)
	}
	// The claim, exercised: an installed placement policy decides which
	// node a fault's frame comes from.
	m := cpusim.New(cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 12})
	n, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Destroy(0)
	m.Phys.SetAllocPolicy(func(int) int { return 1 })
	va, err := n.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if x, ok := n.tree.WalkAccess(va, pt.AccessRead); !ok || m.Phys.FrameNode(x.PFN) != 1 {
		t.Errorf("core 0's page under a node-1 policy: %+v, mapped %v", x, ok)
	}
}

func TestSoftFaultAfterRemoteProtect(t *testing.T) {
	// A stale TLB entry causes a spurious fault that is resolved by a
	// local flush, not a SEGV.
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRead, 0)
	if err := a.Touch(0, va, pt.AccessRead); err != nil {
		t.Fatal(err)
	}
	if err := a.Mprotect(0, va, arch.PageSize, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := a.Touch(0, va, pt.AccessWrite); err != nil {
		t.Fatalf("write after permission widening: %v", err)
	}
}

func TestDoubleCloseSafe(t *testing.T) {
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	c, err := a.Lock(0, 0x1000, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // must be a no-op
}

func TestOpOutsideCursorRange(t *testing.T) {
	a, _ := newSpace(t, ProtocolRW)
	defer a.Destroy(0)
	c, _ := a.Lock(0, 0x10000, 0x20000)
	defer c.Close()
	if _, err := c.Query(0x30000); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("query outside range: %v", err)
	}
	if err := c.Unmap(0x8000, 0x10000); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("unmap outside range: %v", err)
	}
	if err := c.Mark(0x10000, 0x30000, pt.Status{Kind: pt.StatusPrivateAnon}); !errors.Is(err, mm.ErrBadRange) {
		t.Errorf("mark beyond range: %v", err)
	}
}

// entryPoints is the table TestUseAfterDestroy and TestBadCore share:
// every core.AddrSpace entry point that takes a core and can report an
// error, called on core over the mapping [va, va+size). b is a ring of
// that core with one op enqueued.
func entryPoints(a *AddrSpace, b *Batch, core int, va arch.Vaddr, size uint64) map[string]func() error {
	return map[string]func() error{
		"Mmap":      func() error { _, err := a.Mmap(core, size, arch.PermRW, 0); return err },
		"MmapFixed": func() error { return a.MmapFixed(core, 0x10000, size, arch.PermRW, 0) },
		"MmapFile": func() error {
			_, err := a.MmapFile(core, mem.NewFile(a.m.Phys, "f", size), 0, size, arch.PermRW, true)
			return err
		},
		"MmapSharedAnon": func() error { _, err := a.MmapSharedAnon(core, size, arch.PermRW); return err },
		"Munmap":         func() error { return a.Munmap(core, va, size) },
		"Mprotect":       func() error { return a.Mprotect(core, va, size, arch.PermRead) },
		"Msync":          func() error { return a.Msync(core, va, size) },
		"PopulateRange":  func() error { return a.PopulateRange(core, va, size) },
		"Touch":          func() error { return a.Touch(core, va, pt.AccessRead) },
		"Load":           func() error { _, err := a.Load(core, va); return err },
		"Store":          func() error { return a.Store(core, va, 1) },
		"pageFault":      func() error { return a.pageFault(core, va, pt.AccessWrite) },
		"Fork":           func() error { _, err := a.Fork(core); return err },
		"SwapOut":        func() error { _, err := a.SwapOut(core, va, size); return err },
		"ReclaimRange":   func() error { _, err := a.ReclaimRange(core, va, size, 1); return err },
		"Madvise":        func() error { return a.MadviseDontNeed(core, va, size) },
		"Mremap":         func() error { _, err := a.Mremap(core, va, size, 2*size); return err },
		"CollapseHuge":   func() error { return a.CollapseHuge(core, va) },
		"Batch.Mmap":     func() error { _, err := b.Mmap(size, arch.PermRW, 0); return err },
		"Batch.Submit":   func() error { return b.Submit()[0].Err },
		"Lock":           func() error { _, err := a.Lock(core, va, va+arch.Vaddr(size)); return err },
	}
}

// TestUseAfterDestroy: every entry point of a destroyed space returns
// ErrDestroyed — no panic walking the freed tree, no stale read through
// a TLB entry that outlived it (with ASID recycling Destroy flushes
// nothing), no counter moved. Destroy itself stays idempotent.
func TestUseAfterDestroy(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			a.SetSwapDev(mem.NewBlockDev("swap0"))
			const size = 4 * arch.PageSize
			va, err := a.Mmap(0, size, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Store(0, va, 42); err != nil { // leaves a TLB entry on core 0
				t.Fatal(err)
			}
			b := a.NewBatch(0)
			if err := b.Munmap(va, size); err != nil {
				t.Fatal(err)
			}
			a.Destroy(0)
			before := a.Stats().Snapshot()

			calls := entryPoints(a, b, 0, va, size)
			for name, call := range calls {
				if err := call(); !errors.Is(err, ErrDestroyed) {
					t.Errorf("%s after Destroy = %v, want ErrDestroyed", name, err)
				}
			}
			if after := a.Stats().Snapshot(); after != before {
				t.Errorf("counters moved on a destroyed space:\nbefore %+v\nafter  %+v", before, after)
			}
			a.Destroy(0) // still a no-op
			checkClean(t, m)
		})
	}
}
