package tlb

import (
	"sync"
	"testing"

	"cortenmm/internal/arch"
)

func BenchmarkLookupHit(b *testing.B) {
	m := NewMachine(1, ModeSync)
	for i := 0; i < 64; i++ {
		m.Insert(0, 1, arch.Vaddr(i)*arch.PageSize, tr(arch.PFN(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(0, 1, arch.Vaddr(i%64)*arch.PageSize)
	}
}

func BenchmarkInsert(b *testing.B) {
	m := NewMachine(1, ModeSync)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(0, 1, arch.Vaddr(i%4096)*arch.PageSize, tr(arch.PFN(i)))
	}
}

func BenchmarkShootdownRangeSync(b *testing.B) {
	m := NewMachine(4, ModeSync)
	for c := 0; c < 4; c++ {
		m.Insert(c, 1, 0x1000, tr(1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Shootdown(0, 1, []Range{{Lo: 0, Hi: 1 << 26}}, true)
	}
}

// BenchmarkContendedLookup measures the tentpole property: remote
// shootdown traffic must not stall other cores' lookup fast paths.
func BenchmarkContendedLookup(b *testing.B) {
	const cores = 4
	m := NewMachine(cores, ModeSync)
	for c := 0; c < cores; c++ {
		for i := 0; i < 64; i++ {
			m.Insert(c, 1, arch.Vaddr(i)*arch.PageSize, tr(arch.PFN(i)))
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.ShootdownRange(0, 2, arch.Vaddr(i%64)*arch.PageSize, arch.Vaddr(i%64+32)*arch.PageSize)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(1, 1, arch.Vaddr(i%64)*arch.PageSize)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkLookupHitHuge sweeps every 4-KiB offset of one cached 2-MiB
// leaf. Before the huge-entry array only the base page could hit
// (hit rate ~1/512); now every offset is served by the span-indexed
// slot, so this also doubles as the huge hit-rate micro-bench.
func BenchmarkLookupHitHuge(b *testing.B) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	m.Insert(0, 1, span, trL(1<<20, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Lookup(0, 1, span+arch.Vaddr(i%512)*arch.PageSize); !ok {
			b.Fatal("huge-backed lookup missed")
		}
	}
	b.StopTimer()
	st := m.Stats()
	b.ReportMetric(st.HitRate(), "hitrate")
}

// BenchmarkInsertHuge measures the huge fill path (span normalization
// plus the smaller array's victim scan).
func BenchmarkInsertHuge(b *testing.B) {
	m := NewMachine(1, ModeSync)
	span := arch.Vaddr(arch.SpanBytes(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(0, 1, arch.Vaddr(i%64)*span, trL(arch.PFN(i%64)<<9, 2))
	}
}
