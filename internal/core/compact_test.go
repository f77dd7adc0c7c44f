package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
)

// tickStorm forces n timer ticks on core 0 by spinning OpTick.
func tickStorm(m *cpusim.Machine, n int) {
	for i := 0; i < n*64; i++ {
		m.OpTick(0)
	}
}

// TestScannerPromotesOnlyHot: two fully resident spans, one touched
// every round and one never touched again. The khugepaged scanner must
// collapse the hot one and leave the cold one at 4-KiB.
func TestScannerPromotesOnlyHot(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 13})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.Destroy(0); m.Quiesce() }()
	AttachReclaim(m, ReclaimConfig{})
	d := AttachCompaction(m, CompactConfig{ScanSpans: 8})

	span := arch.SpanBytes(2)
	hot := arch.Vaddr(span)
	cold := arch.Vaddr(3 * span)
	for _, base := range []arch.Vaddr{hot, cold} {
		if err := a.MmapFixed(0, base, span, arch.PermRW, mm.FlagPopulate); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		for off := uint64(0); off < span; off += arch.PageSize {
			if err := a.Store(0, hot+arch.Vaddr(off), byte(round)); err != nil {
				t.Fatal(err)
			}
		}
		tickStorm(m, 4)
	}
	st := d.Stats()
	if st.SpansScanned == 0 {
		t.Fatal("scanner never ran")
	}
	if _, level, ok := a.tree.Walk(hot); !ok || level != 2 {
		t.Errorf("hot span not promoted (level=%d, scanned=%d, promotes=%d)", level, st.SpansScanned, st.Promotions)
	}
	if _, level, ok := a.tree.Walk(cold); !ok || level != 1 {
		t.Errorf("cold span promoted (level=%d)", level)
	}
	// Data must have survived the collapse copy.
	if b, err := a.Load(0, hot+arch.PageSize); err != nil || b != 19 {
		t.Errorf("hot data after promote = %d, %v", b, err)
	}
	m.Quiesce()
	if rep := m.Phys.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestAttachOrderIndependent: whichever half of the daemon is attached
// first, both run off the machine's one tick — the collapse scanner
// scans, and kswapd sweeps the zone the populate kicked.
func TestAttachOrderIndependent(t *testing.T) {
	for _, reclaimFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("reclaimFirst=%v", reclaimFirst), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
			a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
			if err != nil {
				t.Fatal(err)
			}
			halves := []func() *Daemon{
				func() *Daemon { return AttachCompaction(m, CompactConfig{ScanSpans: 8}) },
				func() *Daemon { return AttachReclaim(m, ReclaimConfig{LowWater: 3500}) },
			}
			if reclaimFirst {
				slices.Reverse(halves)
			}
			d := halves[0]()
			if halves[1]() != d {
				t.Fatal("the second attach made a second daemon")
			}
			// Two fully resident spans: scanner candidates, and 1 024 frames
			// taken drop the zone below its low watermark of 3 500.
			span := arch.SpanBytes(2)
			if err := a.MmapFixed(0, arch.Vaddr(span), 2*span, arch.PermRW, mm.FlagPopulate); err != nil {
				t.Fatal(err)
			}
			tickStorm(m, 20)
			if st := d.Stats(); st.SpansScanned == 0 || st.BgSweeps == 0 {
				t.Errorf("%d spans scanned, %d background sweeps; want both > 0", st.SpansScanned, st.BgSweeps)
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestDirectCompactionServesOrder9: shatter the zone so no order-9
// block exists, then allocate one. Without the pipeline the allocation
// must fail with ErrFragmented (free memory exists, uncoalescable);
// with it, direct compaction migrates the pins out of the way.
func TestDirectCompactionServesOrder9(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
		a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		if pipeline {
			AttachCompaction(m, CompactConfig{ScanSpans: -1, FragThreshold: -1})
		}
		// Allocate 15/16 of memory as single pages, keep every 8th: every
		// order-9 block is pinned by scattered survivors.
		var kept, drop []arch.Vaddr
		for i := 0; i < (1<<12)*15/16; i++ {
			va, err := a.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatal(err)
			}
			if i%8 == 0 {
				kept = append(kept, va)
			} else {
				drop = append(drop, va)
			}
		}
		for _, va := range drop {
			if err := a.Munmap(0, va, arch.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		// The survivors have all been moved by a growing Mremap: the
		// compactor must find them at their new addresses.
		for i, va := range kept {
			if kept[i], err = a.Mremap(0, va, arch.PageSize, 2*arch.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		m.Quiesce()
		m.Phys.DrainPCP()

		pfn, err := m.Phys.AllocFrames(0, arch.IndexBits, mem.KindAnon)
		if pipeline {
			if err != nil {
				t.Fatalf("pipeline on: order-9 alloc failed: %v", err)
			}
			m.Phys.Put(0, pfn)
		} else {
			if !errors.Is(err, mem.ErrFragmented) {
				t.Fatalf("pipeline off: err = %v, want ErrFragmented", err)
			}
			// ErrFragmented still reads as out-of-memory to retry loops.
			if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatal("ErrFragmented must wrap ErrOutOfMemory")
			}
		}
		a.Destroy(0)
		m.Quiesce()
		if rep := m.Phys.Audit(); !rep.Ok() {
			t.Fatal(rep.String())
		}
	}
}
