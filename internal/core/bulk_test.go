package core

import (
	"errors"
	"runtime"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

// TestBulkRangeEventCounts: what populating, write-protecting and
// unmapping 8 MiB on one core costs in events, not in time, round after
// round. Every populated frame is mapped once, hinted at its own page.
// The protect records one flush range and issues one shootdown; every
// PTE is read-only after it, and a store through the writable
// translation the other core cached before it faults. The unmap is one
// range shootdown and one frame-free callback; its run list stays short —
// each 512-frame populate batch is whole buddy blocks, at most two per
// order (what the last batch and the last page-table page split off) —
// and does not grow from round to round, so it never reaches the
// mid-walk spill. No frame comes from another node, which on a two-node
// machine is where an allocation goes before it enters the slow path,
// and every frame is back after the grace period.
func TestBulkRangeEventCounts(t *testing.T) {
	const pages = 2048
	const size = pages * arch.PageSize
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 16})
			a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: true})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Destroy(0)
			// The first round builds the upper page-table levels.
			for round := 0; round < 20; round++ {
				m.Quiesce()
				free0, far0 := m.Phys.FreeFrames(), m.Phys.NodeFreeFrames(1)
				va, err := a.Mmap(0, size, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.Phys.KindFrames(mem.KindAnon); got != pages {
					t.Fatalf("%d anonymous frames after populate, want %d", got, pages)
				}
				if st := m.Phys.NodeStats()[0]; st.Remote != 0 || m.Phys.NodeFreeFrames(1) != far0 {
					t.Fatalf("populate left its home node: %+v", st)
				}
				for page := va; page < va+size; page += arch.PageSize {
					pte, _, _ := a.tree.Walk(page)
					d := m.Phys.Desc(a.isa.PFNOf(pte))
					if owner, hint := d.AnonRMap(); d.MapCount() != 1 || owner != any(a) || hint != uint64(page) {
						t.Fatalf("page %#x: mapped %d times, hint %v %#x", page, d.MapCount(), owner, hint)
					}
				}

				if err := a.Store(1, va, 1); err != nil {
					t.Fatal(err)
				}
				if _, ok := m.TLB.Lookup(1, a.ASID(), va); !ok {
					t.Fatal("core 1 cached no translation of the page it wrote")
				}
				shoot0 := m.TLB.Stats().Shootdowns
				c, err := a.Lock(0, va, va+size)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Protect(va, va+size, arch.PermRead); err != nil {
					t.Fatal(err)
				}
				if len(c.flush) != 1 || c.flush[0].Lo != va || c.flush[0].Hi != va+size {
					t.Fatalf("protect recorded flush ranges %v, want [%#x, %#x)", c.flush, va, va+size)
				}
				c.Close()
				if d := m.TLB.Stats().Shootdowns - shoot0; d != 1 {
					t.Errorf("protect issued %d shootdowns, want 1", d)
				}
				for page := va; page < va+size; page += arch.PageSize {
					if pte, _, _ := a.tree.Walk(page); a.isa.PermOf(pte) != arch.PermRead {
						t.Fatalf("page %#x reads %v after the protect", page, a.isa.PermOf(pte))
					}
				}
				if err := a.Store(1, va, 2); !errors.Is(err, mm.ErrSegv) {
					t.Fatalf("store through core 1's cached translation after the protect: %v", err)
				}

				ptPages := m.Phys.KindFrames(mem.KindPT)
				shoot0, rcu0 := m.TLB.Stats().Shootdowns, m.RCU.Stats().Deferred
				c, err = a.Lock(0, va, va+size)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Unmap(va, va+size); err != nil {
					t.Fatal(err)
				}
				var queued uint32
				for _, r := range c.freed {
					queued += r.N
				}
				if queued != pages || len(c.freed) > 80 {
					t.Fatalf("round %d: unmap queued %d frames in %d runs, want %d in at most 80", round, queued, len(c.freed), pages)
				}
				c.Close()

				if d := m.TLB.Stats().Shootdowns - shoot0; d != 1 {
					t.Errorf("unmap issued %d shootdowns, want 1", d)
				}
				deferred := m.RCU.Stats().Deferred - rcu0
				m.Quiesce()
				// Beside the frame-free callback, both protocols defer one
				// closure per page-table page they unlinked.
				want := 1 + uint64(ptPages-m.Phys.KindFrames(mem.KindPT))
				if deferred != want {
					t.Errorf("unmap deferred %d callbacks, want %d", deferred, want)
				}
				if round > 0 && m.Phys.FreeFrames() != free0 {
					t.Errorf("%d frames free after the grace period, %d before the mapping", m.Phys.FreeFrames(), free0)
				}
				checkQuiet(t, a)
			}
		})
	}
}

// TestUnmapStagesNoFrameInCache: an 8-MiB unmap is one hand-off to the
// monitor, and the monitor frees it in one call, so whether its frames
// skip the core's frame cache is decided once for all of them — not per
// run, where the short runs a populate's batches leave would each stage
// their frames through the cache. After the grace period the caches hold
// exactly the page-table pages the unmap unlinked, each freed on its own.
func TestUnmapStagesNoFrameInCache(t *testing.T) {
	const size = 8 << 20
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 13})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			va, err := a.Mmap(0, size, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			m.Quiesce()
			m.Phys.DrainPCP()
			ptPages := m.Phys.KindFrames(mem.KindPT)
			if err := a.Munmap(0, va, size); err != nil {
				t.Fatal(err)
			}
			m.Quiesce()
			freedPT := int(ptPages - m.Phys.KindFrames(mem.KindPT))
			if got := m.Phys.DrainPCP(); freedPT == 0 || got != freedPT {
				t.Errorf("the caches hold %d frames after the unmap, want the %d page-table pages it freed", got, freedPT)
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestBulkPopulatePartialFill: the populate batch of a 2-MiB span comes
// back short — cut off by exhaustion, or refused outright by fault
// injection. The pages that got frames are mapped, the rest are still
// private-anonymous with their permissions, the allocator's books
// balance, and unmapping returns everything.
func TestBulkPopulatePartialFill(t *testing.T) {
	defer fault.DisarmAll()
	const span = arch.Vaddr(1) << 21
	for _, p := range protocols {
		for _, refuse := range []bool{false, true} {
			name := p.String() + "/exhausted"
			if refuse {
				name = p.String() + "/refused"
			}
			t.Run(name, func(t *testing.T) {
				defer fault.DisarmAll()
				m := cpusim.New(cpusim.Config{Cores: 1, Frames: 400})
				boot := m.Phys.FreeFrames()
				a, err := New(Options{Machine: m, Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				lo, hi := 8*span, 9*span
				c, err := a.Lock(0, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Mark(lo, hi, pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW}); err != nil {
					t.Fatal(err)
				}
				if refuse {
					fault.MemAllocBatch.Arm(fault.Config{})
				}
				err = c.PopulateAnon(lo, hi)
				fault.MemAllocBatch.Disarm()
				if !errors.Is(err, mem.ErrOutOfMemory) {
					t.Fatalf("PopulateAnon = %v, want out of memory", err)
				}
				mapped := int(m.Phys.KindFrames(mem.KindAnon))
				if refuse && mapped != 0 || !refuse && (mapped == 0 || mapped >= arch.PTEntries || m.Phys.FreeFrames() != 0) {
					t.Fatalf("%d pages got frames, %d frames still free", mapped, m.Phys.FreeFrames())
				}
				for i := 0; i < arch.PTEntries; i++ {
					st, err := c.Query(lo + arch.Vaddr(i)*arch.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					want := pt.StatusPrivateAnon
					if i < mapped {
						want = pt.StatusMapped
					}
					if st.Kind != want || st.Perm&arch.PermRW != arch.PermRW {
						t.Fatalf("page %d of %d mapped: status %+v, want kind %v, RW", i, mapped, st, want)
					}
				}
				if err := c.Unmap(lo, hi); err != nil {
					t.Fatal(err)
				}
				c.Close()
				checkQuiet(t, a)
				a.Destroy(0)
				m.Quiesce()
				if rep := m.Phys.Audit(); !rep.Ok() || m.Phys.FreeFrames() != boot {
					t.Fatalf("%d frames free after Destroy, booted with %d; %s", m.Phys.FreeFrames(), boot, rep.String())
				}
			})
		}
	}
}

// TestFaultedChunkFreesAsOneRun: pages faulted in one at a time get the
// frame cache's frames newest first, so their PFNs descend as the VA
// ascends; the unmap still queues them as one run.
func TestFaultedChunkFreesAsOneRun(t *testing.T) {
	const pages = 4
	a, _ := newSpace(t, ProtocolAdv)
	defer a.Destroy(0)
	va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	var pfns [pages]arch.PFN
	for i := range pfns {
		if err := a.Store(0, va+arch.Vaddr(i)*arch.PageSize, 1); err != nil {
			t.Fatal(err)
		}
		x, ok := a.tree.WalkAccess(va+arch.Vaddr(i)*arch.PageSize, pt.AccessRead)
		if !ok {
			t.Fatalf("page %d not mapped after a store", i)
		}
		pfns[i] = x.PFN
	}
	if pfns[0] != pfns[pages-1]+pages-1 {
		t.Fatalf("frames %v: a fresh frame cache should hand out one refill batch newest first", pfns)
	}
	c, err := a.Lock(0, va, va+pages*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unmap(va, va+pages*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if len(c.freed) != 1 || c.freed[0].Head != pfns[pages-1] || c.freed[0].N != pages {
		t.Errorf("unmap of frames %v queued %v, want one run", pfns, c.freed)
	}
	c.Close()
	checkQuiet(t, a)
}

// bulkCycle is the unit the benchmark's bulk_range workload repeats:
// mmap 8 MiB populated, read 8 of its pages, write-protect it, unmap it.
func bulkCycle(tb testing.TB, a *AddrSpace) {
	const pages = 2048
	const size = pages * arch.PageSize
	va, err := a.Mmap(0, size, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		tb.Fatal(err)
	}
	for i := arch.Vaddr(0); i < 8; i++ {
		if b, err := a.Load(0, va+(i*pages/8+i)*arch.PageSize); err != nil || b != 0 {
			tb.Fatalf("load of a fresh page read %#x, %v", b, err)
		}
	}
	if err := a.Mprotect(0, va, size, arch.PermRead); err != nil {
		tb.Fatal(err)
	}
	if err := a.Munmap(0, va, size); err != nil {
		tb.Fatal(err)
	}
}

// bulkCycleSpace builds the benchmark's machine shape and warms the
// cycle: upper page-table levels built, buffers on the recycle lists.
func bulkCycleSpace(tb testing.TB) (*AddrSpace, *cpusim.Machine) {
	m := cpusim.New(cpusim.Config{Cores: 2, NUMANodes: 2, Frames: 1 << 16, TLBMode: tlb.ModeLATR})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		bulkCycle(tb, a)
	}
	return a, m
}

// TestBulkCycleAllocatesNoPages: once warm, the bulk cycle makes no
// page-sized Go allocation — neither the payloads its loads touch nor
// the word arrays of its page-table pages: both come back from the
// machine's recycle lists. What remains is per-table bookkeeping (a
// PageState and a release closure per leaf table), well under 1 KiB a
// cycle; a single 4-KiB buffer per cycle would exceed it fourfold.
func TestBulkCycleAllocatesNoPages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	a, m := bulkCycleSpace(t)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bulkCycle(t, a)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("warmed 8-MiB populate/load/mprotect/munmap cycle allocates %d B per run (%d objects), want < 1 KiB",
			per, (after.Mallocs-before.Mallocs)/runs)
	}
	a.Destroy(0)
	checkClean(t, m)
}

// BenchmarkBulkCycle times the same cycle (-benchmem reports its bytes).
func BenchmarkBulkCycle(b *testing.B) {
	a, _ := bulkCycleSpace(b)
	defer a.Destroy(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bulkCycle(b, a)
	}
}
