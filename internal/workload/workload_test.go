package workload

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/core"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/vma"
)

func newAdv(t *testing.T, frames int) (*core.AddrSpace, *cpusim.Machine) {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: frames})
	a, err := core.New(core.Options{Machine: m, Protocol: core.ProtocolAdv, PerCoreVA: true})
	if err != nil {
		t.Fatal(err)
	}
	return a, m
}

func newLinux(t *testing.T, frames int) (*vma.Space, *cpusim.Machine) {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: frames})
	s, err := vma.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestMicroAllOpsBothSystems(t *testing.T) {
	for _, cont := range []Contention{Low, High} {
		for _, op := range AllMicroOps {
			t.Run(op.String()+"/"+cont.String(), func(t *testing.T) {
				for _, sysName := range []string{"corten", "linux"} {
					var sys mm.MM
					var m *cpusim.Machine
					if sysName == "corten" {
						sys, m = newAdv(t, 1<<15)
					} else {
						sys, m = newLinux(t, 1<<15)
					}
					res, err := RunMicro(m, sys, MicroConfig{Op: op, Contention: cont, Threads: 4, Iters: 50})
					if err != nil {
						t.Fatalf("%s: %v", sysName, err)
					}
					if res.Ops != 200 || res.OpsPerSec() <= 0 {
						t.Errorf("%s: result %+v", sysName, res)
					}
					sys.Destroy(0)
				}
			})
		}
	}
}

func TestPermuteChunkBijective(t *testing.T) {
	const n = 1 << 10
	seen := make([]bool, n)
	for i := uint64(0); i < n; i++ {
		p := permuteChunk(i, n)
		if p >= n {
			t.Fatalf("permute out of range: %d", p)
		}
		if seen[p] {
			t.Fatalf("collision at %d", p)
		}
		seen[p] = true
	}
}

func TestMetis(t *testing.T) {
	sys, m := newAdv(t, 1<<15)
	defer sys.Destroy(0)
	res, err := Metis(m, sys, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != 8 || res.Throughput() <= 0 {
		t.Errorf("metis = %+v", res)
	}
	// 16k faults were timed: the run held a kernel-time session open,
	// and closed it again.
	if res.KernelFrac <= 0 || res.KernelFrac > 1 {
		t.Errorf("kernel fraction = %v", res.KernelFrac)
	}
	k := sys.Stats().KernelNanos.Load()
	_, _ = sys.Load(0, 0) // one more fault (a SEGV), after the run
	if sys.Stats().KernelNanos.Load() != k {
		t.Error("the session outlived the run")
	}
	// Each chunk is 2048 pages: faults must have happened.
	if sys.Stats().PageFaults.Load() < 8*2048 {
		t.Errorf("faults = %d", sys.Stats().PageFaults.Load())
	}
}

func TestDedupAllocators(t *testing.T) {
	for _, which := range []string{"ptmalloc", "tcmalloc"} {
		sys, m := newAdv(t, 1<<15)
		var alloc Allocator
		if which == "ptmalloc" {
			alloc = NewPtMalloc(sys)
		} else {
			alloc = NewTcMalloc(sys, m.Cores)
		}
		res, err := Dedup(m, sys, alloc, 4, 20)
		if err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if res.Throughput() <= 0 {
			t.Errorf("%s: %+v", which, res)
		}
		if which == "ptmalloc" {
			// Eager return: most large blocks unmapped.
			if sys.Stats().Munmaps.Load() == 0 {
				t.Error("ptmalloc never unmapped")
			}
		} else {
			if res.MappedBytes == 0 {
				t.Error("tcmalloc reports no resident memory")
			}
		}
		sys.Destroy(0)
	}
}

func TestTcMallocReuse(t *testing.T) {
	sys, m := newAdv(t, 1<<14)
	defer sys.Destroy(0)
	alloc := NewTcMalloc(sys, m.Cores)
	va1, err := alloc.Alloc(0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	alloc.Free(0, va1, 256<<10)
	va2, err := alloc.Alloc(0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if va1 != va2 {
		t.Error("tcmalloc did not reuse the cached span")
	}
	if got := sys.Stats().Munmaps.Load(); got != 0 {
		t.Errorf("tcmalloc unmapped %d times", got)
	}
}

func TestPtMallocEagerReturn(t *testing.T) {
	sys, m := newAdv(t, 1<<14)
	defer sys.Destroy(0)
	_ = m
	alloc := NewPtMalloc(sys)
	va, err := alloc.Alloc(0, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	alloc.Free(0, va, 256<<10)
	if got := sys.Stats().Munmaps.Load(); got != 1 {
		t.Errorf("munmaps = %d, want 1 (eager return)", got)
	}
	// Small allocations stay in the arena.
	sva, _ := alloc.Alloc(0, 1024)
	alloc.Free(0, sva, 1024)
	sva2, _ := alloc.Alloc(0, 1024)
	if sva != sva2 {
		t.Error("small free-list not reused")
	}
}

func TestPsearchy(t *testing.T) {
	sys, m := newLinux(t, 1<<15)
	defer sys.Destroy(0)
	alloc := NewPtMalloc(sys)
	res, err := Psearchy(m, sys, alloc, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Work != 20 || res.Throughput() <= 0 {
		t.Errorf("psearchy = %+v", res)
	}
}

func TestJVMThreadCreation(t *testing.T) {
	sys, m := newAdv(t, 1<<15)
	defer sys.Destroy(0)
	res, err := JVMThreadCreation(m, sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Errorf("jvm = %+v", res)
	}
	// 4 threads × (128+64) pages faulted.
	if sys.Stats().PageFaults.Load() < 4*190 {
		t.Errorf("faults = %d", sys.Stats().PageFaults.Load())
	}
}

func TestParsecLowKernelFraction(t *testing.T) {
	sys, m := newAdv(t, 1<<15)
	defer sys.Destroy(0)
	res, err := Parsec(m, sys, "swaptions", 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The simulated access path itself counts as user work here; under
	// the race detector its cost inflates, so the bound is generous.
	if res.KernelFrac > 0.9 {
		t.Errorf("compute workload spends %.0f%% in kernel", res.KernelFrac*100)
	}
}

func TestLMbenchAllOps(t *testing.T) {
	for _, op := range AllLMbenchOps {
		t.Run(op.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
			sys, err := core.New(core.Options{Machine: m, Protocol: core.ProtocolAdv})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Destroy(0)
			newSpace := func() (mm.MM, error) {
				return core.New(core.Options{Machine: m, Protocol: core.ProtocolAdv})
			}
			res, err := RunLMbench(m, sys, newSpace, op, 256, 3)
			if err != nil {
				t.Fatal(err)
			}
			if res.PerOp <= 0 {
				t.Errorf("%s: %+v", op, res)
			}
			m.Quiesce()
		})
	}
}

func TestLMbenchLinux(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
	sys, err := vma.New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Destroy(0)
	newSpace := func() (mm.MM, error) { return vma.New(m, nil) }
	res, err := RunLMbench(m, sys, newSpace, LMFork, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerOp <= 0 {
		t.Errorf("fork: %+v", res)
	}
}

func TestUserWorkVaries(t *testing.T) {
	if userWork(10) == userWork(11) {
		t.Error("userWork degenerate")
	}
	_ = arch.PageSize
}
