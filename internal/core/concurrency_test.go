package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/pt"
)

func newMachine() *cpusim.Machine {
	return cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 15})
}

// TestParallelDisjointOps is the paper's core scalability claim turned
// into a correctness test: transactions on disjoint regions proceed in
// parallel and leave a well-formed tree behind.
func TestParallelDisjointOps(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
			a, err := New(Options{Machine: m, Protocol: p, PerCoreVA: true})
			if err != nil {
				t.Fatal(err)
			}
			var errs atomic.Int32
			m.Run(8, func(core int) {
				for iter := 0; iter < 60; iter++ {
					va, err := a.Mmap(core, 16*arch.PageSize, arch.PermRW, 0)
					if err != nil {
						errs.Add(1)
						return
					}
					for i := 0; i < 4; i++ {
						if err := a.Store(core, va+arch.Vaddr(i*arch.PageSize), byte(core)); err != nil {
							errs.Add(1)
							return
						}
					}
					for i := 0; i < 4; i++ {
						b, err := a.Load(core, va+arch.Vaddr(i*arch.PageSize))
						if err != nil || b != byte(core) {
							errs.Add(1)
							return
						}
					}
					if err := a.Munmap(core, va, 16*arch.PageSize); err != nil {
						errs.Add(1)
						return
					}
				}
			})
			if errs.Load() != 0 {
				t.Fatalf("%d worker errors", errs.Load())
			}
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestTransactionAtomicity checks the §3.3 semantics: all operations in a
// transaction are atomic. Writers mark a whole range with their identity
// inside one cursor; readers lock the same range and must never observe
// a torn (mixed-identity) state.
func TestTransactionAtomicity(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 15})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			const pages = 16
			lo := cpusim.UserLo
			hi := lo + arch.Vaddr(pages*arch.PageSize)
			var torn atomic.Int32

			m.Run(8, func(core int) {
				for iter := 0; iter < 120; iter++ {
					c, err := a.Lock(core, lo, hi)
					if err != nil {
						torn.Add(1)
						return
					}
					if core%2 == 0 {
						// Writer transaction: mark every page with an
						// identity encoded in the protection key.
						tag := arch.ProtKey(core + 1)
						for i := 0; i < pages; i++ {
							va := lo + arch.Vaddr(i*arch.PageSize)
							err := c.Mark(va, va+arch.PageSize, pt.Status{
								Kind: pt.StatusPrivateAnon,
								Perm: arch.PermRW,
							}.WithKey(tag))
							if err != nil {
								torn.Add(1)
							}
						}
					} else {
						// Reader transaction: all pages must carry the
						// same tag (no interleaved writer).
						first, err := c.Query(lo)
						if err != nil {
							torn.Add(1)
						}
						for i := 1; i < pages; i++ {
							st, err := c.Query(lo + arch.Vaddr(i*arch.PageSize))
							if err != nil || st.Kind != first.Kind || st.Key() != first.Key() {
								torn.Add(1)
								break
							}
						}
					}
					c.Close()
				}
			})
			if torn.Load() != 0 {
				t.Fatalf("%d torn transactions observed — atomicity violated", torn.Load())
			}
			checkWF(t, a)
			a.Destroy(0)
		})
	}
}

// TestConcurrentUnmapVsLock exercises the Figure-7 corner case: one core
// repeatedly unmaps (freeing PT pages) while others lock overlapping
// ranges. Under CortenMM_adv this drives the stale-retry and RCU-monitor
// paths.
func TestConcurrentUnmapVsLock(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			base := cpusim.UserLo
			region := arch.Vaddr(arch.SpanBytes(2)) // one leaf PT page span
			var fails atomic.Int32

			m.Run(8, func(core int) {
				my := base + arch.Vaddr(core%4)*region // pairs share a region
				for iter := 0; iter < 80; iter++ {
					if core < 4 {
						// Mapper/unmapper: create pages then blow away the
						// whole region, forcing PT-page removal.
						if err := a.MmapFixed(core, my, 8*arch.PageSize, arch.PermRW, 0); err != nil {
							// A racing pair member may hold the range.
							continue
						}
						for i := 0; i < 8; i++ {
							if err := a.Touch(core, my+arch.Vaddr(i*arch.PageSize), pt.AccessWrite); err != nil {
								fails.Add(1)
							}
						}
						if err := a.Munmap(core, my, uint64(region)); err != nil {
							fails.Add(1)
						}
					} else {
						// Locker: repeatedly locks a sub-range of the same
						// region; must never deadlock, crash, or observe a
						// stale page.
						c, err := a.Lock(core, my, my+4*arch.PageSize)
						if err != nil {
							fails.Add(1)
							continue
						}
						if _, err := c.Query(my); err != nil {
							fails.Add(1)
						}
						c.Close()
					}
				}
			})
			if fails.Load() != 0 {
				t.Fatalf("%d failures under unmap/lock races", fails.Load())
			}
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestConcurrentFaultsSamePage: many cores fault the same page at once;
// exactly one frame must be allocated.
func TestConcurrentFaultsSamePage(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 14})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
			var bad atomic.Int32
			m.Run(8, func(core int) {
				if err := a.Touch(core, va, pt.AccessWrite); err != nil {
					bad.Add(1)
				}
			})
			if bad.Load() != 0 {
				t.Fatal("concurrent faults failed")
			}
			if got := m.Phys.KindFrames(1); got != 1 { // mem.KindAnon == 1
				t.Errorf("%d frames allocated for one page", got)
			}
			if a.stats.PageFaults.Load() < 1 {
				t.Error("no faults recorded")
			}
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestConcurrentForkAndWrite: COW integrity while writers are active on
// other pages of the same space.
func TestConcurrentForkAndWrite(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, PerCoreVA: true})
	if err != nil {
		t.Fatal(err)
	}
	va := cpusim.UserLo
	if err := a.MmapFixed(0, va, 64*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i))
	}
	var bad atomic.Int32
	children := make([]*AddrSpace, 4)
	m.Run(8, func(core int) {
		if core < 4 {
			// Writers keep mutating their own page.
			page := va + arch.Vaddr(core*arch.PageSize)
			for iter := 0; iter < 50; iter++ {
				if err := a.Store(core, page, byte(core)); err != nil {
					bad.Add(1)
				}
			}
		} else {
			childMM, err := a.Fork(core)
			if err != nil {
				bad.Add(1)
				return
			}
			children[core-4] = childMM.(*AddrSpace)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("concurrent fork/write failed")
	}
	// Every child must see untouched high pages exactly.
	for ci, child := range children {
		for i := 8; i < 64; i++ {
			b, err := child.Load(ci, va+arch.Vaddr(i*arch.PageSize))
			if err != nil || b != byte(i) {
				t.Fatalf("child %d page %d = %d, %v", ci, i, b, err)
			}
		}
		checkWF(t, child)
		child.Destroy(ci)
	}
	checkWF(t, a)
	a.Destroy(0)
	checkClean(t, m)
}

// TestRWvsAdvEquivalence runs an identical deterministic workload under
// both protocols and compares the resulting address-space contents.
func TestRWvsAdvEquivalence(t *testing.T) {
	run := func(p Protocol) map[arch.Vaddr]byte {
		m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
		a, err := New(Options{Machine: m, Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Destroy(0)
		base := cpusim.UserLo
		a.MmapFixed(0, base, 64*arch.PageSize, arch.PermRW, 0)
		rng := uint64(12345)
		out := map[arch.Vaddr]byte{}
		for i := 0; i < 500; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			page := arch.Vaddr(rng>>33%64) * arch.PageSize
			switch rng % 3 {
			case 0:
				a.Store(0, base+page, byte(rng>>17))
			case 1:
				a.Munmap(0, base+page, arch.PageSize)
				a.MmapFixed(0, base+page, arch.PageSize, arch.PermRW, 0)
			case 2:
				if b, err := a.Load(0, base+page); err == nil {
					out[base+page] = b
				}
			}
		}
		for i := 0; i < 64; i++ {
			va := base + arch.Vaddr(i*arch.PageSize)
			if b, err := a.Load(0, va); err == nil {
				out[va] = b
			}
		}
		return out
	}
	rw := run(ProtocolRW)
	adv := run(ProtocolAdv)
	if len(rw) != len(adv) {
		t.Fatalf("result sizes differ: %d vs %d", len(rw), len(adv))
	}
	for va, b := range rw {
		if adv[va] != b {
			t.Errorf("divergence at %#x: rw=%d adv=%d", va, b, adv[va])
		}
	}
}

// TestWalkerVsPrune: the simulated MMU walker takes no PT-page lock
// under either protocol, so a leaf table an unmap prunes must outlive
// every access that may already be inside it. Core 1 maps 4 MiB at a
// fixed address (two level-2 entries, so the level-2 page covers the
// range and the unmap prunes the leaf tables below it), faults one page
// and unmaps; core 0 accesses the range all the while. Every access
// returns nil or ErrSegv; before removeChild and Touch went through the
// RCU monitor and a read section, one walked a freed PT page and the
// process died with "mem: frame … is not a PT page".
func TestWalkerVsPrune(t *testing.T) {
	const base = arch.Vaddr(1) << 30
	const size = 4 << 20
	rounds := 10000
	if raceEnabled {
		rounds = 1000
	}
	accesses := []struct {
		name string
		do   func(a *AddrSpace, va arch.Vaddr) error
	}{
		{"touch", func(a *AddrSpace, va arch.Vaddr) error { return a.Touch(0, va, pt.AccessRead) }},
		{"load", func(a *AddrSpace, va arch.Vaddr) error { _, err := a.Load(0, va); return err }},
		{"store", func(a *AddrSpace, va arch.Vaddr) error { return a.Store(0, va, 1) }},
	}
	for _, p := range protocols {
		for _, acc := range accesses {
			t.Run(p.String()+"/"+acc.name, func(t *testing.T) {
				// A tick per operation, so deferred frees run as early as
				// the grace period allows.
				m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14, TickEvery: 1})
				a, err := New(Options{Machine: m, Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				var done atomic.Bool
				m.Run(2, func(core int) {
					if core == 0 {
						for i := 0; !done.Load(); i++ {
							// Byte 1 of a page is core 0's, byte 0 core 1's.
							va := base + arch.Vaddr(i%16)*arch.PageSize + 1
							if err := acc.do(a, va); err != nil && !errors.Is(err, errSegv) {
								t.Errorf("access %#x: %v", va, err)
								return
							}
						}
						return
					}
					defer done.Store(true)
					for i := 0; i < rounds; i++ {
						if err := a.MmapFixed(1, base, size, arch.PermRW, 0); err != nil {
							t.Errorf("round %d: mmap: %v", i, err)
							return
						}
						if err := a.Store(1, base+9*arch.PageSize, 7); err != nil {
							t.Errorf("round %d: store: %v", i, err)
							return
						}
						if err := a.Munmap(1, base, size); err != nil {
							t.Errorf("round %d: munmap: %v", i, err)
							return
						}
					}
				})
				checkQuiet(t, a)
				a.Destroy(0)
				checkClean(t, m)
			})
		}
	}
}
