package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/tlb"
)

// TestSwapOutThenTouchConcurrent races swap-out against stores. Cores
// 1–3 each own every third page of a populated range and, round after
// round, load each owned page — it must hold the owner's last store —
// and store the round number to it, while core 0 swaps the range out in
// a loop. An eviction that writes a page to swap while another core
// still holds a writable translation of it loses the stores that land
// after the write; the next load reads the swapped-in older byte.
func TestSwapOutThenTouchConcurrent(t *testing.T) {
	const (
		pages  = 24
		rounds = 256
	)
	base := arch.Vaddr(arch.SpanBytes(2))
	pageVA := func(i int) arch.Vaddr { return base + arch.Vaddr(i)*arch.PageSize }
	for _, p := range protocols {
		for _, mode := range []tlb.Mode{tlb.ModeSync, tlb.ModeEarlyAck, tlb.ModeLATR} {
			t.Run(fmt.Sprintf("%v/%v", p, mode), func(t *testing.T) {
				m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 13, TLBMode: mode, TickEvery: 8})
				a, err := New(Options{Machine: m, Protocol: p, SwapDev: mem.NewBlockDev("swap")})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.MmapFixed(0, base, pages*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatal(err)
				}
				var last [pages]byte
				var writing, lost atomic.Int32
				writing.Store(3)
				m.Run(4, func(core int) {
					if core == 0 {
						for writing.Load() > 0 {
							if _, err := a.SwapOut(0, base, pages*arch.PageSize); err != nil {
								t.Errorf("SwapOut: %v", err)
								return
							}
						}
						return
					}
					defer writing.Add(-1)
					for n := 1; n <= rounds; n++ {
						for i := core - 1; i < pages; i += 3 {
							b, err := a.Load(core, pageVA(i))
							if err != nil {
								t.Errorf("round %d: load of page %d: %v", n, i, err)
								return
							}
							if b != last[i] {
								lost.Add(1)
							}
							if err := a.Store(core, pageVA(i), byte(n)); err != nil {
								t.Errorf("round %d: store to page %d: %v", n, i, err)
								return
							}
							last[i] = byte(n)
						}
					}
				})
				if n := lost.Load(); n > 0 {
					t.Errorf("%d acknowledged stores lost", n)
				}
				t.Logf("%d pages swapped out under the stores", a.Stats().SwapOuts.Load())
				m.Quiesce()
				for i := range last {
					if b, err := a.Load(0, pageVA(i)); err != nil || b != last[i] {
						t.Errorf("page %d = %d, %v; want %d", i, b, err, last[i])
					}
				}
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}

// TestGracePeriodUnderLock: a transaction may wait for a grace period
// with PT locks held. Core 0 holds a transaction of one space and core 1
// waits for the same lock; core 0, still inside that transaction, swaps
// a page of another space out, and the swap-out's break waits for a
// grace period. Were core 1 waiting for its lock inside an RCU read
// section (Figure 6's order), that grace period would never end.
func TestGracePeriodUnderLock(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 12})
	held, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := New(Options{Machine: m, Protocol: ProtocolAdv, SwapDev: mem.NewBlockDev("swap")})
	if err != nil {
		t.Fatal(err)
	}
	va, err := held.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := swapped.Mmap(0, arch.PageSize, arch.PermRW, mm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}

	c, err := held.Lock(0, va, va+arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		c1, err := held.Lock(1, va, va+arch.PageSize)
		if err == nil {
			c1.Close()
		}
		waited <- err
	}()
	for !m.InTx(1) {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond) // let core 1 reach the lock

	out := make(chan error, 1)
	go func() {
		_, err := swapped.SwapOut(0, vb, arch.PageSize)
		out <- err
	}()
	select {
	case err := <-out:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		c.Close() // let core 1 through, so the grace period ends
		<-out
		t.Fatal("a grace period under a held PT lock never ended: core 1 waits for that lock inside a read section")
	}
	c.Close()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if n := swapped.Stats().SwapOuts.Load(); n != 1 {
		t.Errorf("%d pages swapped out, want 1", n)
	}
	held.Destroy(0)
	swapped.Destroy(0)
	checkClean(t, m)
}
