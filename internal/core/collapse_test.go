package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/fault"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
)

func TestCollapseHugePromotes(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Destroy(0)
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span) // 2 MiB aligned
	if err := a.MmapFixed(0, base, span, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	// Fault every page in with a recognizable pattern.
	for off := uint64(0); off < span; off += arch.PageSize {
		if err := a.Store(0, base+arch.Vaddr(off), byte(off/arch.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	ptPagesBefore := a.tree.PTPageCount.Load()
	if err := a.CollapseHuge(0, base+123*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if a.stats.Collapses.Load() != 1 {
		t.Error("collapse counter not bumped")
	}
	// The leaf PT page is gone: a huge leaf replaced 512 entries.
	m.Quiesce()
	if got := a.tree.PTPageCount.Load(); got != ptPagesBefore-1 {
		t.Errorf("PT pages = %d, want %d", got, ptPagesBefore-1)
	}
	pte, level, ok := a.tree.Walk(base)
	if !ok || level != 2 {
		t.Fatalf("walk after collapse: ok=%v level=%d", ok, level)
	}
	_ = pte
	// Data survived the copy.
	for off := uint64(0); off < span; off += 37 * arch.PageSize {
		b, err := a.Load(0, base+arch.Vaddr(off))
		if err != nil || b != byte(off/arch.PageSize) {
			t.Fatalf("page %d after collapse = %d, %v", off/arch.PageSize, b, err)
		}
	}
	// Exactly one 512-frame block resident now.
	if got := m.Phys.KindFrames(mem.KindAnon); got != 512 {
		t.Errorf("anon frames = %d, want 512", got)
	}
	checkWF(t, a)
	// And it can be split right back by a partial unmap.
	if err := a.Munmap(0, base, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	b, err := a.Load(0, base+arch.PageSize)
	if err != nil || b != 1 {
		t.Fatalf("after re-split: %d, %v", b, err)
	}
	checkWF(t, a)
}

func TestCollapseRejectsPartialSpan(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 15})
	a, _ := New(Options{Machine: m, Protocol: ProtocolRW})
	defer a.Destroy(0)
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	a.MmapFixed(0, base, span, arch.PermRW, 0)
	a.Store(0, base, 1) // only one page resident
	if err := a.CollapseHuge(0, base); !errors.Is(err, mm.ErrNotSupported) {
		t.Errorf("partial span collapsed: %v", err)
	}
}

func TestCollapseRejectsCOW(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 16})
	a, _ := New(Options{Machine: m, Protocol: ProtocolAdv})
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	a.MmapFixed(0, base, span, arch.PermRW, 0)
	for off := uint64(0); off < span; off += arch.PageSize {
		a.Store(0, base+arch.Vaddr(off), 1)
	}
	child, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CollapseHuge(0, base); !errors.Is(err, mm.ErrNotSupported) {
		t.Errorf("COW span collapsed: %v", err)
	}
	child.Destroy(1)
	a.Destroy(0)
}

// TestCollapseThenTouchConcurrent races collapses against stores. Cores
// 1–3 each own pages of every span and store a rising counter to them
// round after round through their cached translations, remembering the
// last store that returned nil, while core 0 collapses the spans one
// after another, each all 4-KiB when its turn comes. A collapse that
// copies while a core still holds a writable translation of a source page
// loses the stores that land after the copy, so afterwards every owned
// page must hold its owner's last acknowledged value and every other page
// its initial byte. A collapse the stores aborted must leave its span
// collapsible: once the writers stop, every span collapses.
func TestCollapseThenTouchConcurrent(t *testing.T) {
	const (
		spans    = 8
		perOwner = 4 // pages each writer owns per span
		tries    = 4 // concurrent collapse attempts per span
	)
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	pageVA := func(s, i int) arch.Vaddr { return base + arch.Vaddr(uint64(s)*span+uint64(i)*arch.PageSize) }
	for _, p := range protocols {
		for _, mode := range []tlb.Mode{tlb.ModeSync, tlb.ModeEarlyAck, tlb.ModeLATR} {
			t.Run(fmt.Sprintf("%v/%v", p, mode), func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15, TLBMode: mode, TickEvery: 8})
				a, err := New(Options{Machine: m, Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.MmapFixed(0, base, spans*span, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < spans; s++ {
					for i := 0; i < arch.PTEntries; i++ {
						if err := a.Store(0, pageVA(s, i), byte(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Writer w (core w+1) owns page 3j+w of every span, j < perOwner.
				var last [spans][3 * perOwner]byte
				var started atomic.Int32 // writers through their first round
				var stop atomic.Bool
				m.Run(4, func(core int) {
					if core == 0 {
						defer stop.Store(true)
						for started.Load() < 3 && !stop.Load() {
							runtime.Gosched()
						}
						for s := 0; s < spans; s++ {
							for try := 0; try < tries; try++ {
								err := a.CollapseHuge(0, pageVA(s, 0))
								if err == nil {
									break
								}
								if !errors.Is(err, mm.ErrNotSupported) {
									t.Errorf("collapse of span %d: %v", s, err)
									return
								}
							}
						}
						return
					}
					w := core - 1
					for n := 1; !stop.Load(); n++ {
						for s := 0; s < spans; s++ {
							for j := 0; j < perOwner; j++ {
								i := 3*j + w
								if err := a.Store(core, pageVA(s, i), byte(n)); err != nil {
									t.Errorf("store to span %d page %d: %v", s, i, err)
									stop.Store(true)
									return
								}
								last[s][i] = byte(n)
							}
						}
						if n == 1 {
							started.Add(1)
						}
					}
				})
				raced := a.stats.Collapses.Load()
				t.Logf("%d of %d spans collapsed under the stores", raced, spans)
				// A store that upgraded a write-protected page in place
				// releases the old mapping's reference after a grace
				// period; until then that page is not exclusively held.
				m.Quiesce()
				for s := 0; s < spans; s++ {
					if err := a.CollapseHuge(0, pageVA(s, 0)); err != nil {
						t.Errorf("span %d after the stores: %v", s, err)
					}
					for i := 0; i < arch.PTEntries; i++ {
						want := byte(i)
						if i < len(last[s]) {
							want = last[s][i]
						}
						if b, err := a.Load(0, pageVA(s, i)); err != nil || b != want {
							t.Errorf("span %d page %d = %d, %v; want %d", s, i, b, err, want)
						}
					}
				}
				if got := a.stats.Collapses.Load(); got != spans {
					t.Errorf("%d collapses, want %d", got, spans)
				}
				checkWF(t, a)
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}

// TestCollapseAbortRestoresSpan parks a collapse between its barrier and
// its second transaction and stores to one page of the span there: a
// write fault that upgrades the write-protected page in place. Released,
// the collapse must see the upgraded page and abort. The store survives,
// the other 511 pages get their write permission back instead of staying
// copy-on-write (which reclaim and the collapse scanner skip), and the
// span collapses on the next try.
func TestCollapseAbortRestoresSpan(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	span := arch.SpanBytes(2)
	base := arch.Vaddr(span)
	if err := a.MmapFixed(0, base, span, arch.PermRW, mm.FlagPopulate); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arch.PTEntries; i++ {
		if err := a.Store(0, base+arch.Vaddr(i)*arch.PageSize, byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	const hit = 100
	hitVA := base + hit*arch.PageSize

	parked, done := parkAfterBarrier(t, func() error { return a.CollapseHuge(0, base) })
	defer fault.MigratePostBarrier.Disarm()
	perm := func(va arch.Vaddr) arch.Perm {
		pte, level, ok := a.tree.Walk(va)
		if !ok || level != 1 {
			t.Fatalf("page %#x: mapped=%v level=%d, want a 4-KiB leaf", va, ok, level)
		}
		return a.isa.PermOf(pte)
	}
	if p := perm(hitVA); p&arch.PermWrite != 0 || p&arch.PermCOW == 0 {
		t.Fatalf("window perm %v, want read-only + COW", p)
	}
	if err := a.Store(1, hitVA, 0xEE); err != nil {
		t.Fatal(err)
	}
	parked.Release()
	if err := <-done; !errors.Is(err, mm.ErrNotSupported) {
		t.Fatalf("collapse after a store in its window = %v, want ErrNotSupported", err)
	}
	if a.stats.Collapses.Load() != 0 {
		t.Fatal("aborted collapse counted")
	}
	for i := 0; i < arch.PTEntries; i++ {
		if p := perm(base + arch.Vaddr(i)*arch.PageSize); p&arch.PermWrite == 0 || p&arch.PermCOW != 0 {
			t.Fatalf("page %d left %v after the abort, want writable and not COW", i, p)
		}
	}
	// The upgrade released its old mapping's reference after a grace
	// period; until then the page is not exclusively referenced.
	m.Quiesce()
	if err := a.CollapseHuge(0, base); err != nil {
		t.Fatalf("collapse after the abort: %v", err)
	}
	if _, level, ok := a.tree.Walk(base); !ok || level != 2 {
		t.Fatalf("span not huge after the second collapse (level %d)", level)
	}
	for i := 0; i < arch.PTEntries; i++ {
		want := byte(i)
		if i == hit {
			want = 0xEE
		}
		if b, err := a.Load(0, base+arch.Vaddr(i)*arch.PageSize); err != nil || b != want {
			t.Fatalf("page %d = %#x, %v; want %#x", i, b, err, want)
		}
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

// parkAfterBarrier starts op in its own goroutine and returns once op is
// parked at migrate:post-barrier, together with the channel op's error
// will arrive on. An op that returns instead, or does not arrive within a
// bound, fails the test. The caller disarms the point.
func parkAfterBarrier(t *testing.T, op func() error) (*fault.Parked, <-chan error) {
	t.Helper()
	parked := fault.MigratePostBarrier.Park()
	done := make(chan error, 1)
	go func() { done <- op() }()
	reached := make(chan struct{})
	go func() { parked.Await(); close(reached) }()
	select {
	case <-reached:
		return parked, done
	case err := <-done:
		fault.MigratePostBarrier.Disarm()
		t.Fatalf("returned %v without reaching %s", err, fault.MigratePostBarrier)
	case <-time.After(10 * time.Second):
		fault.MigratePostBarrier.Disarm()
		t.Fatalf("never reached %s", fault.MigratePostBarrier)
	}
	return nil, nil
}
