package core

import (
	"fmt"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
)

// TestRemapReadsZero: map, dirty every byte, unmap, quiesce, map again —
// every byte of every page reads 0, whether the frames came one fault at
// a time, from the populate batch or as a 2-MiB block. Frames and their
// buffers are recycled through the pcp cache in between, so this is the
// clear_page guarantee as a user sees it.
func TestRemapReadsZero(t *testing.T) {
	const pages = 6
	for _, p := range protocols {
		for _, tc := range []struct {
			name  string
			size  uint64
			flags mm.Flags
		}{
			{"fault", pages * arch.PageSize, 0},
			{"populate", pages * arch.PageSize, mm.FlagPopulate},
			{"huge", arch.SpanBytes(2), mm.FlagHuge2M},
		} {
			t.Run(fmt.Sprintf("%s/%s", p, tc.name), func(t *testing.T) {
				a, m := newSpace(t, p)
				// Byte offsets checked per page: all of them on the small
				// regions, a spread on the 512-page one.
				step := uint64(1)
				if tc.size > pages*arch.PageSize {
					step = 509
				}
				const hugeVA = arch.Vaddr(5) << 30
				mapIt := func() arch.Vaddr {
					if tc.flags&mm.FlagHuge2M != 0 {
						if err := a.MmapFixed(0, hugeVA, tc.size, arch.PermRW, tc.flags); err != nil {
							t.Fatal(err)
						}
						return hugeVA
					}
					va, err := a.Mmap(0, tc.size, arch.PermRW, tc.flags)
					if err != nil {
						t.Fatal(err)
					}
					return va
				}
				for round := 0; round < 3; round++ {
					va := mapIt()
					for off := uint64(0); off < tc.size; off += step {
						b, err := a.Load(0, va+arch.Vaddr(off))
						if err != nil {
							t.Fatal(err)
						}
						if b != 0 {
							t.Fatalf("round %d: byte %#x of a fresh mapping reads %#x", round, off, b)
						}
						if err := a.Store(0, va+arch.Vaddr(off), 0xA5); err != nil {
							t.Fatal(err)
						}
					}
					if err := a.Munmap(0, va, tc.size); err != nil {
						t.Fatal(err)
					}
					m.Quiesce()
					if rep := m.Phys.Audit(); !rep.Ok() {
						t.Fatal(rep.String())
					}
				}
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}

// anonCycle is the malloc-style unit the benchmark's anon_churn workload
// repeats: mmap 16 KiB, fault and write its four pages, read one back,
// munmap.
func anonCycle(tb testing.TB, a *AddrSpace) {
	const size = 4 * arch.PageSize
	va, err := a.Mmap(0, size, arch.PermRW, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := arch.Vaddr(0); i < 4; i++ {
		if err := a.Store(0, va+i*arch.PageSize, 0x5A); err != nil {
			tb.Fatal(err)
		}
	}
	if b, err := a.Load(0, va); err != nil || b != 0x5A {
		tb.Fatalf("read back %#x, %v", b, err)
	}
	if err := a.Munmap(0, va, size); err != nil {
		tb.Fatal(err)
	}
}

func anonCycleSpace(tb testing.TB) (*AddrSpace, *cpusim.Machine) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14, TLBMode: tlb.ModeLATR})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 512; i++ { // warm: buffers grown, payloads in the cache
		anonCycle(tb, a)
	}
	return a, m
}

// TestAnonCycleAllocatesNothing guards the tentpole: once warm, the
// anonymous page cycle performs no Go heap allocation at all: frame
// payloads come back from the pcp cache, the deferred free is a record
// in recycled storage, and the cursor, the TLB buffers and the RCU
// scratch lists are all reused.
func TestAnonCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	a, m := anonCycleSpace(t)
	if got := testing.AllocsPerRun(2000, func() { anonCycle(t, a) }); got != 0 {
		t.Errorf("warmed mmap/store/load/munmap cycle allocates %.3f objects per run, want 0", got)
	}
	a.Destroy(0)
	checkClean(t, m)
}

// BenchmarkAnonCycle times the same cycle (go test -bench AnonCycle
// -benchmem ./internal/core reports 0 allocs/op).
func BenchmarkAnonCycle(b *testing.B) {
	a, _ := anonCycleSpace(b)
	defer a.Destroy(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anonCycle(b, a)
	}
}
