package core

import (
	"errors"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestOOMGraceful: exhausting simulated physical memory surfaces an
// error (never a panic), leaves the tree well-formed, and recovers
// fully once memory is released.
func TestOOMGraceful(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 128})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Destroy(0)
			va, err := a.Mmap(0, 1024*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				t.Fatal(err) // virtual allocation is nearly free
			}
			touched := 0
			var faultErr error
			for i := 0; i < 1024; i++ {
				faultErr = a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite)
				if faultErr != nil {
					break
				}
				touched++
			}
			if faultErr == nil {
				t.Fatal("never hit OOM with 128 frames")
			}
			if !errors.Is(faultErr, mem.ErrOutOfMemory) {
				t.Fatalf("fault failed with %v, want out-of-memory", faultErr)
			}
			if touched == 0 {
				t.Fatal("no page faulted before OOM")
			}
			checkWF(t, a)
			// Already-faulted pages still work.
			if _, err := a.Load(0, va); err != nil {
				t.Errorf("resident page unreadable after OOM: %v", err)
			}
			// Releasing memory unblocks new faults.
			if err := a.Munmap(0, va, uint64(touched)*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			m.Quiesce()
			if err := a.Touch(0, va+arch.Vaddr(touched*arch.PageSize), pt.AccessWrite); err != nil {
				t.Errorf("fault after recovery: %v", err)
			}
			checkWF(t, a)
		})
	}
}

// TestOOMReapsMonitorFirst: dead frames waiting in the RCU monitor are
// memory an allocating syscall may have. Each unmap below hands its
// 4096 frames to the monitor as one callback, far under ReapBacklog, so
// by the fourth populate three quarters of the machine waits there; with
// no daemon to reclaim through, the populate must reap the monitor and
// succeed rather than report out-of-memory.
func TestOOMReapsMonitorFirst(t *testing.T) {
	const pages = 4096
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 1, Frames: 4 * pages})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 6; round++ {
				va, err := a.Mmap(0, pages*arch.PageSize, arch.PermRW, mm.FlagPopulate)
				if err != nil {
					t.Fatalf("round %d: %v with %d callbacks waiting in the monitor", round, err, m.RCU.Stats().Pending)
				}
				if err := a.Munmap(0, va, pages*arch.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			a.Destroy(0)
			if err := m.CheckClean(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOOMDuringPopulate: a MAP_POPULATE mmap that runs out of frames
// partway must fail cleanly — the half-populated range is torn down, no
// frames leak, and the freed VA range is safely reusable (a stale Marked
// prefix would resurrect on the range's next tenant).
func TestOOMDuringPopulate(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 256})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Destroy(0)
			// Burn all free frames, then release a handful: enough for the
			// page tables and a few populated pages, not for all 64.
			var burn []arch.PFN
			for {
				pfn, err := m.Phys.AllocFrame(0, mem.KindKernel)
				if err != nil {
					break
				}
				burn = append(burn, pfn)
			}
			for i := 0; i < 8 && len(burn) > 0; i++ {
				m.Phys.Put(0, burn[len(burn)-1])
				burn = burn[:len(burn)-1]
			}
			if _, err := a.Mmap(0, 64*arch.PageSize, arch.PermRW, mm.FlagPopulate); err == nil {
				t.Fatal("populate succeeded with almost no memory")
			} else if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatalf("populate failed with %v, want out-of-memory", err)
			}
			for _, pfn := range burn {
				m.Phys.Put(0, pfn)
			}
			m.Quiesce()
			checkWF(t, a)
			if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
				t.Errorf("failed populate leaked %d anon frames", got)
			}
			// The released VA range must be clean for its next tenant.
			va, err := a.Mmap(0, 64*arch.PageSize, arch.PermRW, mm.FlagPopulate)
			if err != nil {
				t.Fatalf("mmap after recovery: %v", err)
			}
			for i := 0; i < 64; i++ {
				b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize))
				if err != nil || b != 0 {
					t.Fatalf("populated page %d = %d, %v (stale state from failed populate?)", i, b, err)
				}
			}
			checkWF(t, a)
		})
	}
}

// TestOOMDuringFork: fork failing mid-copy must clean up the partial
// child without leaking frames or corrupting the parent.
func TestOOMDuringFork(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 192})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := a.Mmap(0, 64*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 64; i++ {
		if err := a.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Burn most remaining frames so the child's PT allocation fails.
	var burn []arch.PFN
	for {
		pfn, err := m.Phys.AllocFrame(0, mem.KindKernel)
		if err != nil {
			break
		}
		burn = append(burn, pfn)
	}
	// Leave a few frames: enough to start a fork, not to finish it.
	for i := 0; i < 3 && len(burn) > 0; i++ {
		m.Phys.Put(0, burn[len(burn)-1])
		burn = burn[:len(burn)-1]
	}
	if _, err := a.Fork(0); err == nil {
		t.Fatal("fork succeeded with no memory")
	}
	for _, pfn := range burn {
		m.Phys.Put(0, pfn)
	}
	m.Quiesce()
	checkWF(t, a)
	// Parent data intact and writable (COW marks from the failed fork
	// may remain; writes must still succeed via the COW path).
	for i := 0; i < 64; i++ {
		b, err := a.Load(0, va+arch.Vaddr(i*arch.PageSize))
		if err != nil || b != byte(i) {
			t.Fatalf("parent page %d = %d, %v", i, b, err)
		}
	}
	if err := a.Store(0, va, 0xFF); err != nil {
		t.Fatalf("parent write after failed fork: %v", err)
	}
	a.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("failed fork leaked %d anon frames", got)
	}
	if got := m.Phys.KindFrames(mem.KindPT); got != 0 {
		t.Errorf("failed fork leaked %d PT frames", got)
	}
}

// TestVAExhaustion: running out of address space is an error distinct
// from OOM.
func TestVAExhaustion(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 1, Frames: 1 << 12})
	a, _ := New(Options{Machine: m, Protocol: ProtocolRW})
	defer a.Destroy(0)
	_, err := a.Mmap(0, uint64(cpusim.UserHi-cpusim.UserLo)+arch.PageSize, arch.PermRW, 0)
	if !errors.Is(err, cpusim.ErrVAExhausted) {
		t.Errorf("oversized mmap: %v", err)
	}
	// Normal operation continues.
	if _, err := a.Mmap(0, arch.PageSize, arch.PermRW, 0); err != nil {
		t.Errorf("mmap after VA exhaustion error: %v", err)
	}
	_ = mm.ErrSegv
}
