package core

import (
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func benchSpace(b *testing.B, p Protocol, cores int) (*AddrSpace, *cpusim.Machine) {
	b.Helper()
	m := cpusim.New(cpusim.Config{Cores: cores, Frames: 1 << 18})
	a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: true})
	if err != nil {
		b.Fatal(err)
	}
	return a, m
}

// BenchmarkLockClose measures the raw transaction overhead: lock one
// page's covering PT page and release it, for both protocols.
func BenchmarkLockClose(b *testing.B) {
	for _, p := range protocols {
		b.Run(p.String(), func(b *testing.B) {
			a, _ := benchSpace(b, p, 1)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
			a.Touch(0, va, pt.AccessWrite) // materialize the path
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := a.Lock(0, va, va+arch.PageSize)
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}

// BenchmarkPageFault measures one anonymous fault end to end (map +
// unmap-to-reset amortized out by cycling through a large region).
func BenchmarkPageFault(b *testing.B) {
	for _, p := range protocols {
		b.Run(p.String(), func(b *testing.B) {
			a, _ := benchSpace(b, p, 1)
			defer a.Destroy(0)
			const window = 1 << 14 // pages
			va, err := a.Mmap(0, window*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page := va + arch.Vaddr(i%window)*arch.PageSize
				if i%window == 0 && i > 0 {
					b.StopTimer()
					a.MadviseDontNeed(0, va, window*arch.PageSize)
					b.StartTimer()
				}
				if err := a.Touch(0, page, pt.AccessWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTouchTLBHit measures the simulated access fast path.
func BenchmarkTouchTLBHit(b *testing.B) {
	a, _ := benchSpace(b, ProtocolAdv, 1)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	a.Touch(0, va, pt.AccessWrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Touch(0, va, pt.AccessRead); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelFaults measures disjoint-region fault throughput on
// all cores — the scalability the paper's Figure 14 PF plots.
func BenchmarkParallelFaults(b *testing.B) {
	for _, p := range protocols {
		b.Run(p.String(), func(b *testing.B) {
			a, m := benchSpace(b, p, 8)
			defer a.Destroy(0)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				core := int(next.Add(1)-1) % m.Cores
				va, err := a.Mmap(core, 1<<20, arch.PermRW, 0)
				if err != nil {
					b.Fatal(err)
				}
				i := 0
				for pb.Next() {
					page := va + arch.Vaddr(i%256)*arch.PageSize
					if i%256 == 0 && i > 0 {
						a.MadviseDontNeed(core, va, 256*arch.PageSize)
					}
					if err := a.Touch(core, page, pt.AccessWrite); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// rangeSizes are the spans the range-operation benchmarks sweep; the
// 64-MiB and 1-GiB points are where single-pass range iteration must
// beat per-page root-to-leaf walks (O(pages + depth) vs O(pages × depth)).
var rangeSizes = []struct {
	name string
	size uint64
}{
	{"1MiB", 1 << 20},
	{"64MiB", 1 << 26},
	{"1GiB", 1 << 30},
}

// BenchmarkMsyncRange measures msync over a large shared file mapping
// with a handful of resident dirty pages — the cost is the range scan,
// not the writeback.
func BenchmarkMsyncRange(b *testing.B) {
	for _, sz := range rangeSizes {
		b.Run(sz.name, func(b *testing.B) {
			m := cpusim.New(cpusim.Config{Cores: 1, Frames: 1 << 14})
			a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Destroy(0)
			f := mem.NewFile(m.Phys, "bench", sz.size)
			va, err := a.MmapFile(0, f, 0, sz.size, arch.PermRW, true)
			if err != nil {
				b.Fatal(err)
			}
			// Dirty 32 pages spread across the range.
			npages := sz.size / arch.PageSize
			for i := uint64(0); i < 32; i++ {
				page := va + arch.Vaddr(i*(npages/32)*arch.PageSize)
				if err := a.Store(0, page, byte(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(sz.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Msync(0, va, sz.size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPopulateRange measures MAP_POPULATE end to end: one timed
// mmap+populate of the whole range per iteration (teardown untimed).
func BenchmarkPopulateRange(b *testing.B) {
	for _, sz := range rangeSizes {
		b.Run(sz.name, func(b *testing.B) {
			frames := int(sz.size/arch.PageSize) + (1 << 13)
			m := cpusim.New(cpusim.Config{Cores: 1, Frames: frames})
			a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Destroy(0)
			b.SetBytes(int64(sz.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va, err := a.Mmap(0, sz.size, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := a.Munmap(0, va, sz.size); err != nil {
					b.Fatal(err)
				}
				m.Quiesce()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMunmapFlushRange measures unmapping a fully populated range —
// the path whose TLB invalidation volume the coalesced flush ranges are
// meant to collapse (one range shootdown instead of one per page).
func BenchmarkMunmapFlushRange(b *testing.B) {
	for _, sz := range rangeSizes {
		b.Run(sz.name, func(b *testing.B) {
			frames := int(sz.size/arch.PageSize) + (1 << 13)
			m := cpusim.New(cpusim.Config{Cores: 1, Frames: frames})
			a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Destroy(0)
			b.SetBytes(int64(sz.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				va, err := a.Mmap(0, sz.size, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := a.Munmap(0, va, sz.size); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				m.Quiesce()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSplitHugeLeaf measures splitting a 2-MiB leaf: an mprotect of
// one page of it builds a leaf table of 512 entries over the same frames
// and links it in the huge leaf's place. Mapping the leaves (two, so that
// the level-2 page covers the range) and unmapping are outside the timer.
func BenchmarkSplitHugeLeaf(b *testing.B) {
	const span = 1 << 21
	const va = arch.Vaddr(1) << 30
	a, m := benchSpace(b, ProtocolAdv, 1)
	defer a.Destroy(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := a.MmapFixed(0, va, 2*span, arch.PermRW, mm.FlagPopulate|mm.FlagHuge2M); err != nil {
			b.Fatal(err)
		}
		if _, level, _ := a.tree.Walk(va); level != 2 {
			b.Fatalf("populate left a level-%d leaf at %#x", level, va)
		}
		b.StartTimer()
		if err := a.Mprotect(0, va+7*arch.PageSize, arch.PageSize, arch.PermRead); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := a.Munmap(0, va, 2*span); err != nil {
			b.Fatal(err)
		}
		m.Quiesce()
		b.StartTimer()
	}
}

// BenchmarkFork measures whole-address-space enumeration (the paper's
// worst case) at two working-set sizes.
func BenchmarkFork(b *testing.B) {
	for _, pages := range []int{64, 1024} {
		b.Run(map[int]string{64: "small", 1024: "large"}[pages], func(b *testing.B) {
			a, _ := benchSpace(b, ProtocolAdv, 2)
			defer a.Destroy(0)
			va, _ := a.Mmap(0, uint64(pages)*arch.PageSize, arch.PermRW, 0)
			for i := 0; i < pages; i++ {
				a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child, err := a.Fork(0)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				child.Destroy(1)
				b.StartTimer()
			}
		})
	}
}
