package vma

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

func TestTreeOps(t *testing.T) {
	var tr tree
	mk := func(lo, hi arch.Vaddr) *VMA { return &VMA{Start: lo, End: hi} }
	a := mk(0x1000, 0x3000)
	b := mk(0x5000, 0x8000)
	c := mk(0x9000, 0xa000)
	tr.insert(b)
	tr.insert(a)
	tr.insert(c)
	if got := tr.find(0x2000); got != a {
		t.Errorf("find(0x2000) = %+v", got)
	}
	if got := tr.find(0x4000); got != nil {
		t.Errorf("find in gap = %+v", got)
	}
	if got := tr.find(0x7fff); got != b {
		t.Errorf("find(0x7fff) = %+v", got)
	}
	ov := tr.overlaps(0x2000, 0x6000)
	if len(ov) != 2 || ov[0] != a || ov[1] != b {
		t.Errorf("overlaps = %v", ov)
	}
	tr.remove(b)
	if tr.find(0x6000) != nil {
		t.Error("removed VMA still found")
	}
	if tr.count != 2 {
		t.Errorf("count = %d", tr.count)
	}
}

func TestTreeBalance(t *testing.T) {
	var tr tree
	const n = 1024
	for i := 0; i < n; i++ {
		va := arch.Vaddr(i) * 0x10000
		tr.insert(&VMA{Start: va, End: va + 0x1000})
	}
	if h := height(tr.root); h > 12 { // ~log2(1024)+slack
		t.Errorf("AVL height %d for %d nodes", h, n)
	}
	for i := 0; i < n; i++ {
		va := arch.Vaddr(i) * 0x10000
		if tr.find(va) == nil {
			t.Fatalf("lost VMA %d", i)
		}
	}
}

func TestMmapTouchMunmap(t *testing.T) {
	s, m := newSpace(t)
	va, err := s.Mmap(0, 16*arch.PageSize, arch.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phys.KindFrames(mem.KindAnon) != 0 {
		t.Error("eager allocation on mmap")
	}
	for i := 0; i < 16; i++ {
		if err := s.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Phys.KindFrames(mem.KindAnon); got != 16 {
		t.Errorf("frames = %d", got)
	}
	if err := s.Munmap(0, va, 16*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	m.Quiesce() // the unmapped frames are freed by the RCU monitor
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("frames after munmap = %d", got)
	}
	if err := s.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("touch after munmap: %v", err)
	}
	if err := s.tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindPT); got != 0 {
		t.Errorf("leaked %d PT frames", got)
	}
}

// TestRefusedMmapSpendsNoVA: an Mmap the user range cannot hold is
// refused before the bump pointer moves, so a smaller one still fits.
func TestRefusedMmapSpendsNoVA(t *testing.T) {
	s, m := newSpace(t)
	half := uint64(cpusim.UserHi-cpusim.UserLo) / 2
	if _, err := s.Mmap(0, half, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mmap(0, half+arch.PageSize, arch.PermRW, 0); !errors.Is(err, cpusim.ErrVAExhausted) {
		t.Fatalf("Mmap past the user range = %v, want ErrVAExhausted", err)
	}
	f := mem.NewFile(m.Phys, "f", arch.PageSize)
	if _, err := s.MmapFile(0, f, 0, half+arch.PageSize, arch.PermRW, true); !errors.Is(err, cpusim.ErrVAExhausted) {
		t.Fatalf("MmapFile past the user range = %v, want ErrVAExhausted", err)
	}
	if _, err := s.Mmap(0, arch.PageSize, arch.PermRW, 0); err != nil {
		t.Errorf("Mmap after a refused one = %v", err)
	}
	s.Destroy(0)
	if err := m.CheckClean(); err != nil {
		t.Error(err)
	}
}

func TestPartialMunmapSplitsVMA(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, 16*arch.PageSize, arch.PermRW, 0)
	if err := s.Munmap(0, va+4*arch.PageSize, 8*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.vmas.count != 2 {
		t.Errorf("VMA count after middle split = %d, want 2", s.vmas.count)
	}
	if err := s.Touch(0, va+5*arch.PageSize, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Error("hole accessible")
	}
	if err := s.Touch(0, va, pt.AccessWrite); err != nil {
		t.Errorf("head: %v", err)
	}
	if err := s.Touch(0, va+12*arch.PageSize, pt.AccessWrite); err != nil {
		t.Errorf("tail: %v", err)
	}
}

func TestMprotect(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	s.Touch(0, va, pt.AccessWrite)
	if err := s.Mprotect(0, va, 2*arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if s.vmas.count != 2 {
		t.Errorf("VMA count after protect split = %d", s.vmas.count)
	}
	if err := s.Touch(0, va, pt.AccessWrite); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("write after mprotect: %v", err)
	}
	if err := s.Touch(0, va+2*arch.PageSize, pt.AccessWrite); err != nil {
		t.Errorf("write outside protected range: %v", err)
	}
}

func TestForkCOW(t *testing.T) {
	s, m := newSpace(t)
	va, _ := s.Mmap(0, 2*arch.PageSize, arch.PermRW, 0)
	s.Store(0, va, 1)
	childMM, err := s.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := childMM.(*Space)
	b, err := child.Load(1, va)
	if err != nil || b != 1 {
		t.Fatalf("child read = %d, %v", b, err)
	}
	child.Store(1, va, 2)
	pb, _ := s.Load(0, va)
	if pb != 1 {
		t.Errorf("parent sees child write: %d", pb)
	}
	s.Store(0, va, 3)
	cb, _ := child.Load(1, va)
	if cb != 2 {
		t.Errorf("child sees parent write: %d", cb)
	}
	child.Destroy(1)
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}

func TestFileMappings(t *testing.T) {
	s, m := newSpace(t)
	defer s.Destroy(0)
	f := mem.NewFile(m.Phys, "f", 8*arch.PageSize)
	sh, _ := s.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, true)
	pr, _ := s.MmapFile(0, f, 0, 4*arch.PageSize, arch.PermRW, false)
	s.Store(0, sh+5, 0x3C)
	b, err := s.Load(0, pr+5)
	if err != nil || b != 0x3C {
		t.Fatalf("private sees %#x, %v", b, err)
	}
	s.Store(0, pr+5, 0x4D)
	sb, _ := s.Load(0, sh+5)
	if sb != 0x3C {
		t.Error("private write leaked to shared")
	}
	if err := s.Msync(0, sh, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if f.WritebackCount() == 0 {
		t.Error("msync wrote nothing")
	}
}

func TestParallelFaultsDisjoint(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
	s, _ := New(m, nil)
	var fails atomic.Int32
	vas := make([]arch.Vaddr, 8)
	for c := range vas {
		va, err := s.Mmap(c, 32*arch.PageSize, arch.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		vas[c] = va
	}
	m.Run(8, func(core int) {
		for i := 0; i < 32; i++ {
			if err := s.Store(core, vas[core]+arch.Vaddr(i*arch.PageSize), byte(core)); err != nil {
				fails.Add(1)
			}
		}
	})
	if fails.Load() != 0 {
		t.Fatal("parallel faults failed")
	}
	for c := range vas {
		for i := 0; i < 32; i++ {
			b, err := s.Load(c, vas[c]+arch.Vaddr(i*arch.PageSize))
			if err != nil || b != byte(c) {
				t.Fatalf("core %d page %d = %d, %v", c, i, b, err)
			}
		}
	}
	if err := s.tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}

func TestConcurrentMmapMunmap(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 8, Frames: 1 << 16})
	s, _ := New(m, nil)
	var fails atomic.Int32
	m.Run(8, func(core int) {
		for i := 0; i < 40; i++ {
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
		t.Fatal("concurrent mmap/munmap failed")
	}
	if err := s.tree.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(mem.KindAnon); got != 0 {
		t.Errorf("leaked %d frames", got)
	}
}

// TestFeatureRow: the Linux baseline pages on demand, forks with COW and
// maps files.
func TestFeatureRow(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	if f := s.Features(); !f.OnDemandPaging {
		t.Errorf("features = %+v", f)
	}
	if _, ok := any(s).(mm.Forker); !ok {
		t.Error("the Linux baseline should implement mm.Forker")
	}
	if _, ok := any(s).(mm.FileMapper); !ok {
		t.Error("the Linux baseline should implement mm.FileMapper")
	}
}
