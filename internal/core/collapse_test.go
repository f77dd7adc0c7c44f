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
// its initial byte, and every span must end up collapsed.
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

// TestCollapseWindowStoreLandsInHugePage parks a collapse after its
// barrier — span write-protected and shot down, the move's lock held —
// and stores to one page of the span there. The store faults and must
// wait for the lock with no RCU read section open: a reader waiting on a
// lock would stall the grace period a transaction waits for. Released,
// the collapse completes and the store lands in the huge page.
func TestCollapseWindowStoreLandsInHugePage(t *testing.T) {
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
	if pte, level, ok := a.tree.Walk(hitVA); !ok || level != 1 ||
		a.isa.PermOf(pte)&arch.PermWrite != 0 || a.isa.PermOf(pte)&arch.PermCOW == 0 {
		t.Fatalf("window: mapped=%v level=%d perm %v, want a read-only + COW 4-KiB leaf", ok, level, a.isa.PermOf(pte))
	}
	stored := make(chan error, 1)
	go func() { stored <- a.Store(1, hitVA, 0xEE) }()
	if err := waitForLock(m, 1, stored); err != nil {
		t.Fatal(err)
	}
	parked.Release()
	if err := <-done; err != nil {
		t.Fatalf("collapse: %v", err)
	}
	if err := <-stored; err != nil {
		t.Fatalf("store in the window: %v", err)
	}
	if a.stats.Collapses.Load() != 1 {
		t.Fatal("collapse not counted")
	}
	if _, level, ok := a.tree.Walk(base); !ok || level != 2 {
		t.Fatalf("span not huge after the collapse (level %d)", level)
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

// waitForLock returns nil once core's access, whose result arrives on
// done, has faulted into a transaction and is waiting there for a lock a
// parked operation holds: it has not finished, and it holds no RCU read
// section open while it waits.
func waitForLock(m *cpusim.Machine, core int, done <-chan error) error {
	for deadline := time.Now().Add(10 * time.Second); !m.InTx(core); runtime.Gosched() {
		if time.Now().After(deadline) {
			return fmt.Errorf("core %d never faulted into a transaction", core)
		}
	}
	time.Sleep(10 * time.Millisecond) // let it reach the lock
	select {
	case err := <-done:
		return fmt.Errorf("core %d's access finished (%v) while the lock was held", core, err)
	default:
	}
	if m.RCU.InReader(core) {
		return fmt.Errorf("core %d waits for a PT lock inside an RCU read section", core)
	}
	return nil
}
