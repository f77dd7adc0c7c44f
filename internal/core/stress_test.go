package core

import (
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/pt"
)

// TestConcurrentMremap: disjoint mremaps on all cores race against
// faults; data must follow the moves exactly.
func TestConcurrentMremap(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
			a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: true})
			if err != nil {
				t.Fatal(err)
			}
			var bad atomic.Int32
			m.Run(8, func(core int) {
				va, err := a.Mmap(core, 8*arch.PageSize, arch.PermRW, 0)
				if err != nil {
					bad.Add(1)
					return
				}
				for iter := 0; iter < 20; iter++ {
					for i := 0; i < 8; i++ {
						if err := a.Store(core, va+arch.Vaddr(i*arch.PageSize), byte(core*20+iter)); err != nil {
							bad.Add(1)
							return
						}
					}
					nva, err := a.Mremap(core, va, 8*arch.PageSize, 16*arch.PageSize)
					if err != nil {
						bad.Add(1)
						return
					}
					for i := 0; i < 8; i++ {
						b, err := a.Load(core, nva+arch.Vaddr(i*arch.PageSize))
						if err != nil || b != byte(core*20+iter) {
							bad.Add(1)
							return
						}
					}
					// Shrink back for the next round.
					if _, err := a.Mremap(core, nva, 16*arch.PageSize, 8*arch.PageSize); err != nil {
						bad.Add(1)
						return
					}
					va = nva
				}
				if err := a.Munmap(core, va, 8*arch.PageSize); err != nil {
					bad.Add(1)
				}
			})
			if bad.Load() != 0 {
				t.Fatalf("%d failures", bad.Load())
			}
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestConcurrentCollapseAndReclaim: huge-page promotion racing the
// clock reclaimer and writers on neighbouring spans.
func TestConcurrentCollapseAndReclaim(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 16})
	dev := m.Phys.Swap()
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	if err := a.MmapFixed(0, base, 2*span, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	// Fault in the first span completely, the second partially.
	for off := uint64(0); off < span; off += arch.PageSize {
		a.Store(0, base+arch.Vaddr(off), 5)
	}
	for off := uint64(0); off < span/2; off += arch.PageSize {
		a.Store(0, base+arch.Vaddr(span)+arch.Vaddr(off), 6)
	}
	var bad atomic.Int32
	m.Run(4, func(core int) {
		switch core {
		case 0:
			_ = a.CollapseHuge(core, base) // may or may not win the race
		case 1:
			if _, err := a.ReclaimRange(core, base+arch.Vaddr(span), uint64(span), 64); err != nil {
				bad.Add(1)
			}
		default:
			for i := 0; i < 60; i++ {
				off := arch.Vaddr(uint64(core*60+i) % (span / arch.PageSize) * arch.PageSize)
				if err := a.Touch(core, base+off, pt.AccessRead); err != nil {
					bad.Add(1)
					return
				}
			}
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d failures", bad.Load())
	}
	// Every byte of the first span still reads 5 regardless of whether
	// the collapse won.
	for off := uint64(0); off < span; off += 61 * arch.PageSize {
		b, err := a.Load(0, base+arch.Vaddr(off))
		if err != nil || b != 5 {
			t.Fatalf("offset %#x = %d, %v", off, b, err)
		}
	}
	checkWF(t, a)
	a.Destroy(0)
	m.Quiesce()
	if dev.InUse() != 0 {
		t.Errorf("swap blocks leaked: %d", dev.InUse())
	}
	checkClean(t, m)
}

// TestConcurrentMadviseVsFault: DONTNEED racing writers on the same
// region — every outcome must be a legal serialization (the page is
// either the old value or a fresh zero, never torn, never segfaulting).
func TestConcurrentMadviseVsFault(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
	a, _ := New(Options{Machine: m, Protocol: ProtocolAdv})
	base := cpusim.UserLo
	if err := a.MmapFixed(0, base, 32*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	var bad atomic.Int32
	m.Run(4, func(core int) {
		for i := 0; i < 80; i++ {
			// Writers own disjoint 8-page stripes; only the madviser
			// touches everything.
			page := base + arch.Vaddr(uint64(core*8+i%8)*arch.PageSize)
			if core == 0 {
				if err := a.MadviseDontNeed(core, base, 32*arch.PageSize); err != nil {
					bad.Add(1)
					return
				}
				continue
			}
			if err := a.Store(core, page, byte(core)); err != nil {
				bad.Add(1)
				return
			}
			b, err := a.Load(core, page)
			if err != nil || (b != byte(core) && b != 0) {
				bad.Add(1)
				return
			}
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d failures", bad.Load())
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}
