package vma

import (
	"errors"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

func TestMmapMergesAdjacentAnon(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	// Sequential bump-allocated mmaps with equal perms collapse to one
	// VMA, like Linux's vma_merge.
	for i := 0; i < 16; i++ {
		if _, err := s.Mmap(0, 4*arch.PageSize, arch.PermRW, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.vmas.count != 1 {
		t.Errorf("VMA count = %d, want 1 (merge broken)", s.vmas.count)
	}
	// Different permissions break the merge.
	if _, err := s.Mmap(0, arch.PageSize, arch.PermRead, 0); err != nil {
		t.Fatal(err)
	}
	if s.vmas.count != 2 {
		t.Errorf("VMA count = %d, want 2", s.vmas.count)
	}
}

func TestMergeBridgesGapsAfterUnmap(t *testing.T) {
	s, _ := newSpace(t)
	defer s.Destroy(0)
	va, _ := s.Mmap(0, 16*arch.PageSize, arch.PermRW, 0)
	// Punch a hole, then refill it at a fixed address: pred and succ
	// merge back into one VMA.
	if err := s.Munmap(0, va+4*arch.PageSize, 4*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if s.vmas.count != 2 {
		t.Fatalf("after hole: %d VMAs", s.vmas.count)
	}
	if err := s.MmapFixed(0, va+4*arch.PageSize, 4*arch.PageSize, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	if s.vmas.count != 1 {
		t.Errorf("after refill: %d VMAs, want 1", s.vmas.count)
	}
	// The merged region is fully usable.
	for i := 0; i < 16; i++ {
		if err := s.Store(0, va+arch.Vaddr(i*arch.PageSize), byte(i)); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
}

func TestMergedVMAStillUnmapsCleanly(t *testing.T) {
	s, m := newSpace(t)
	va, _ := s.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 3; i++ {
		s.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	}
	for i := 0; i < 16; i++ {
		s.Store(0, va+arch.Vaddr(i*arch.PageSize), 1)
	}
	if err := s.Munmap(0, va, 16*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(0, va, pt.AccessRead); !errors.Is(err, mm.ErrSegv) {
		t.Errorf("after unmap of merged region: %v", err)
	}
	s.Destroy(0)
	m.Quiesce()
	if got := m.Phys.KindFrames(1); got != 0 { // mem.KindAnon
		t.Errorf("leaked %d frames", got)
	}
}
