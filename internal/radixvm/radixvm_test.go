package radixvm

import (
	"errors"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func newSpace(t *testing.T) (*Space, *cpusim.Machine) {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 15})
	s, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestMmapTouchMunmap(t *testing.T) {
	s, m := newSpace(t)
	va, err := s.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		b, err := s.Load(0, va+arch.Vaddr(i*arch.PageSize))
		if err != nil || b != byte(i) {
			t.Fatalf("page %d = %d, %v", i, b, err)
		}
	}
	if err := s.Munmap(0, va, 8*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("after munmap: %v", err)
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d anon frames", got)
	}
	if got := m.Phys.KindFrames(mem.KindPT); got != 0 {
		t.Errorf("leaked %d PT frames", got)
	}
}

func TestPerCoreReplication(t *testing.T) {
	s, m := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	// Core 0 and core 3 both touch: each replica materializes its own PT
	// path, but the data frame is shared.
	if err := s.Store(0, va, 42); err != nil {
		t.Fatal(err)
	}
	b, err := s.Load(3, va)
	if err != nil || b != 42 {
		t.Fatalf("core 3 sees %d, %v", b, err)
	}
	if s.replicas[0].tree.PTPageCount.Load() < 4 || s.replicas[3].tree.PTPageCount.Load() < 4 {
		t.Error("replicas not independently materialized")
	}
	// 8 replica roots plus two fully materialized 4-level paths.
	if s.PTBytes() < 14*arch.PageSize {
		t.Errorf("PTBytes = %d; replication overhead missing", s.PTBytes())
	}
	_ = m
}

func TestWriteVisibleAcrossCores(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	s.Store(1, va, 7)
	b, err := s.Load(5, va)
	if err != nil || b != 7 {
		t.Fatalf("cross-core read = %d, %v", b, err)
	}
}

func TestMunmapClearsAllReplicas(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	for c := 0; c < 8; c++ {
		if err := s.Touch(c, va, pt.AccessWrite); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Munmap(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		if err := s.Touch(c, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
			t.Errorf("core %d still maps unmapped page: %v", c, err)
		}
	}
}

func TestMprotect(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	s.Touch(0, va, pt.AccessWrite)
	if err := s.Mprotect(0, va, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(0, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("write after mprotect: %v", err)
	}
	if err := s.Touch(0, va, pt.AccessRead); err != nil {
		t.Errorf("read after mprotect: %v", err)
	}
}

// TestUnsupportedOps: RadixVM has no fork or file mapping; it lacks
// those ops by lacking their methods.
func TestUnsupportedOps(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	if _, ok := any(s).(mm.Forker); ok {
		t.Error("RadixVM should not implement mm.Forker")
	}
	if _, ok := any(s).(mm.FileMapper); ok {
		t.Error("RadixVM should not implement mm.FileMapper")
	}
}

func TestParallelDisjoint(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
	s, _ := New(m, nil)
	var fails atomic.Int32
	m.Run(8, func(core int) {
		for i := 0; i < 30; i++ {
			va, err := s.Mmap(core, 4*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				fails.Add(1)
				return
			}
			if err := s.Store(core, va, byte(core)); err != nil {
				fails.Add(1)
				return
			}
			if err := s.Munmap(core, va, 4*arch.PageSize); err != nil {
				fails.Add(1)
				return
			}
		}
	})
	if fails.Load() != 0 {
		t.Fatal("parallel ops failed")
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}
