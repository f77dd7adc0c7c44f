package nros

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
	m := cpusim.New(cpusim.Config{Cores: 8, NUMANodes: 2, Frames: 1 << 15})
	s, err := New(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestEagerMapping(t *testing.T) {
	s, m := newSpace(t)
	before := m.Phys.KindFrames(mem.KindAnon)
	va, err := s.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	// NrOS has no on-demand paging: frames are allocated at mmap.
	if got := m.Phys.KindFrames(mem.KindAnon) - before; got != 8 {
		t.Errorf("eager frames = %d, want 8", got)
	}
	// No page faults on access.
	if err := s.Store(0, va, 9); err != nil {
		t.Fatal(err)
	}
	if got := s.stats.PageFaults.Load(); got != 0 {
		t.Errorf("faults = %d on eagerly mapped range", got)
	}
	if err := s.Munmap(0, va, 8*arch.PageSize); err != nil {
		t.Fatal(err)
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

func TestReplicaLagSync(t *testing.T) {
	s, m := newSpace(t)
	defer s.Destroy(0)
	// Core 0 (node 0) maps; core 4 (node 1 under the cluster-block
	// topology) accesses: node 1's replica must catch up via the log.
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	if err := s.Store(0, va, 3); err != nil {
		t.Fatal(err)
	}
	b, err := s.Load(4, va)
	if err != nil || b != 3 {
		t.Fatalf("remote node read = %d, %v", b, err)
	}
	// Both replicas now have PT pages.
	if s.replicas[0].tree.PTPageCount.Load() < 4 || s.replicas[1].tree.PTPageCount.Load() < 4 {
		t.Error("replicas not both materialized")
	}
	_ = m
}

func TestUnmapAcrossReplicas(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, 2*arch.PageSize, arch.PermRW, 0)
	s.Touch(4, va, pt.AccessRead) // materialize node 1 (cores 4-7)
	if err := s.Munmap(2, va, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if err := s.Touch(c, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
			t.Errorf("core %d: %v after unmap", c, err)
		}
	}
}

func TestProtectViaLog(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, arch.PageSize, arch.PermRW, 0)
	if err := s.Mprotect(0, va, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(1, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("write after protect on other node: %v", err)
	}
	if err := s.Touch(1, va, pt.AccessRead); err != nil {
		t.Errorf("read after protect: %v", err)
	}
}

// TestUnsupported: NrOS has no fork, file mapping or on-demand paging;
// it lacks those ops by lacking their methods.
func TestUnsupported(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	if _, ok := any(s).(mm.Forker); ok {
		t.Error("NrOS should not implement mm.Forker")
	}
	if _, ok := any(s).(mm.FileMapper); ok {
		t.Error("NrOS should not implement mm.FileMapper")
	}
	if f := s.Features(); f.OnDemandPaging {
		t.Errorf("features = %+v; NrOS has no on-demand paging", f)
	}
}

func TestConcurrentMutators(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 8, NUMANodes: 2, Frames: 1 << 16})
	s, _ := New(m, nil)
	var fails atomic.Int32
	m.Run(8, func(core int) {
		for i := 0; i < 25; i++ {
			va, err := s.Mmap(core, 2*arch.PageSize, arch.PermRW, 0)
			if err != nil {
				fails.Add(1)
				return
			}
			if err := s.Store(core, va, byte(core)); err != nil {
				fails.Add(1)
				return
			}
			if err := s.Munmap(core, va, 2*arch.PageSize); err != nil {
				fails.Add(1)
				return
			}
		}
	})
	if fails.Load() != 0 {
		t.Fatal("concurrent log mutations failed")
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}
