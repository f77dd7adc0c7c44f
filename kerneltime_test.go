package cortenmm_test

import (
	"testing"
	"time"

	"cortenmm"
	"cortenmm/internal/mm"
)

// The kernel-time contract every system behind cortenmm.MM keeps: MM
// calls read the clock only while a Stats.TimeKernel session is open,
// and opening one changes nothing but KernelNanos.

var fiveSystems = []struct {
	name string
	mk   func(m *cortenmm.Machine) (cortenmm.MM, error)
}{
	{"corten-rw", func(m *cortenmm.Machine) (cortenmm.MM, error) {
		return cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolRW})
	}},
	{"corten-adv", func(m *cortenmm.Machine) (cortenmm.MM, error) {
		return cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolAdv, PerCoreVA: true})
	}},
	{"linux", func(m *cortenmm.Machine) (cortenmm.MM, error) { return cortenmm.NewLinuxBaseline(m, nil) }},
	{"radixvm", func(m *cortenmm.Machine) (cortenmm.MM, error) { return cortenmm.NewRadixVMBaseline(m, nil) }},
	{"nros", func(m *cortenmm.Machine) (cortenmm.MM, error) { return cortenmm.NewNrOSBaseline(m, nil) }},
}

// forEachSystem runs f on a fresh instance of each system on its own
// 2-core machine.
func forEachSystem(t *testing.T, f func(t *testing.T, m *cortenmm.Machine, sys cortenmm.MM)) {
	for _, s := range fiveSystems {
		t.Run(s.name, func(t *testing.T) {
			m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2})
			sys, err := s.mk(m)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Destroy(0)
			f(t, m, sys)
		})
	}
}

// churn drives rounds of mmap, one write fault per page, mprotect, a
// read-back and munmap from core: every bracketed entry point.
func churn(t *testing.T, sys cortenmm.MM, core, rounds int) {
	const pages = 4
	for r := 0; r < rounds; r++ {
		va, err := sys.Mmap(core, pages*cortenmm.PageSize, cortenmm.PermRW, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for p := 0; p < pages; p++ {
			if err := sys.Store(core, va+cortenmm.Vaddr(p*cortenmm.PageSize), byte(r)); err != nil {
				t.Error(err)
				return
			}
		}
		if err := sys.Mprotect(core, va, pages*cortenmm.PageSize, cortenmm.PermRead); err != nil {
			t.Error(err)
			return
		}
		if b, err := sys.Load(core, va); err != nil || b != byte(r) {
			t.Errorf("round %d: load = %d, %v", r, b, err)
			return
		}
		if err := sys.Munmap(core, va, pages*cortenmm.PageSize); err != nil {
			t.Error(err)
			return
		}
	}
}

func TestKernelTimeOnlyInsideSession(t *testing.T) {
	forEachSystem(t, func(t *testing.T, m *cortenmm.Machine, sys cortenmm.MM) {
		st := sys.Stats()
		churn(t, sys, 0, 50)
		if k := st.KernelNanos.Load(); k != 0 {
			t.Fatalf("KernelNanos = %d with no session open", k)
		}
		if st.Mmaps.Load() != 50 || st.Munmaps.Load() != 50 || st.Mprotects.Load() != 50 {
			t.Fatalf("op counts without a session: %+v", st.Snapshot())
		}

		const threads = 2
		start := time.Now()
		stop := st.TimeKernel()
		m.Run(threads, func(core int) { churn(t, sys, core, 50) })
		stop()
		wall := time.Since(start)
		k := time.Duration(st.KernelNanos.Load())
		if k <= 0 || k > wall*threads {
			t.Fatalf("KernelNanos = %v inside a session, want in (0, %v x %d]", k, wall, threads)
		}

		churn(t, sys, 0, 50)
		if after := time.Duration(st.KernelNanos.Load()); after != k {
			t.Fatalf("KernelNanos moved %v -> %v after the session closed", k, after)
		}
	})
}

// TestSessionDoesNotChangeCounts replays one deterministic op stream on
// two fresh instances, one timed and one not: every counter but
// KernelNanos must agree.
func TestSessionDoesNotChangeCounts(t *testing.T) {
	for _, s := range fiveSystems {
		t.Run(s.name, func(t *testing.T) {
			var snaps [2]mm.Snapshot
			for i, timed := range []bool{false, true} {
				sys, err := s.mk(cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2}))
				if err != nil {
					t.Fatal(err)
				}
				stop := func() {}
				if timed {
					stop = sys.Stats().TimeKernel()
				}
				churn(t, sys, 0, 100)
				stop()
				snaps[i] = sys.Stats().Snapshot()
				sys.Destroy(0)
			}
			if snaps[1].KernelNanos == 0 {
				t.Error("timed run recorded no kernel time")
			}
			snaps[1].KernelNanos = snaps[0].KernelNanos
			if snaps[0] != snaps[1] {
				t.Errorf("counters differ:\nuntimed %+v\ntimed   %+v", snaps[0], snaps[1])
			}
		})
	}
}

// TestSessionsNestAndOpenMidCall: sessions are counted, and one may open
// or close on another goroutine while calls are in flight (run under
// -race).
func TestSessionsNestAndOpenMidCall(t *testing.T) {
	forEachSystem(t, func(t *testing.T, m *cortenmm.Machine, sys cortenmm.MM) {
		st := sys.Stats()
		outer := st.TimeKernel()
		inner := st.TimeKernel()
		outer()
		churn(t, sys, 0, 10)
		k := st.KernelNanos.Load()
		if k == 0 {
			t.Fatal("closing one of two sessions stopped the timer")
		}

		inner()
		done := make(chan struct{})
		go func() {
			defer close(done)
			churn(t, sys, 1, 200)
		}()
		for toggling := true; toggling; {
			select {
			case <-done:
				toggling = false
			default:
				outer, inner = st.TimeKernel(), st.TimeKernel()
				outer()
				inner()
			}
		}

		k = st.KernelNanos.Load()
		churn(t, sys, 0, 10)
		if after := st.KernelNanos.Load(); after != k {
			t.Fatalf("KernelNanos moved %d -> %d with every session closed", k, after)
		}
	})
}

func TestIdleBracketAllocatesNothing(t *testing.T) {
	var st cortenmm.Stats // the zero Stats is usable
	if n := testing.AllocsPerRun(1000, func() {
		t0 := st.KernelEnter()
		st.KernelExit(t0)
	}); n != 0 {
		t.Errorf("idle bracket allocates %v times per call", n)
	}
	if k := st.KernelNanos.Load(); k != 0 {
		t.Errorf("idle bracket charged %d ns", k)
	}
}
