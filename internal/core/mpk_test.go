package core

import (
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/pt"
)

func newMPKSpace(t *testing.T) *AddrSpace {
	t.Helper()
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 14})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv, ISA: arch.X8664(true)})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestSetProtKeyOnMappedAndVirtual(t *testing.T) {
	a := newMPKSpace(t)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, 8*arch.PageSize, arch.PermRW, 0)
	// Fault half in: the key must land on both mapped pages and
	// still-virtual pages (via metadata).
	for i := 0; i < 4; i++ {
		if err := a.Touch(0, va+arch.Vaddr(i*arch.PageSize), pt.AccessWrite); err != nil {
			t.Fatal(err)
		}
	}
	c, err := a.Lock(0, va, va+8*arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetProtKey(va, va+8*arch.PageSize, 9); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st, err := c.Query(va + arch.Vaddr(i*arch.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if st.Key() != 9 {
			t.Errorf("page %d key = %d (kind %v)", i, st.Key(), st.Kind)
		}
	}
	c.Close()
	// A later fault on a virtual page carries the key into the PTE.
	if err := a.Touch(0, va+6*arch.PageSize, pt.AccessWrite); err != nil {
		t.Fatal(err)
	}
	c, _ = a.Lock(0, va, va+8*arch.PageSize)
	st, _ := c.Query(va + 6*arch.PageSize)
	c.Close()
	if st.Kind != pt.StatusMapped || st.Key() != 9 {
		t.Errorf("faulted page: kind=%v key=%d", st.Kind, st.Key())
	}
	checkWF(t, a)
}

func TestSetProtKeyBounds(t *testing.T) {
	a := newMPKSpace(t)
	defer a.Destroy(0)
	va, _ := a.Mmap(0, arch.PageSize, arch.PermRW, 0)
	c, _ := a.Lock(0, va, va+arch.PageSize)
	defer c.Close()
	if err := c.SetProtKey(va, va+arch.PageSize, arch.MaxProtKey+1); err == nil {
		t.Error("out-of-range key accepted")
	}
}

func TestDestroyReleasesSwapBlocks(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
	dev := mem.NewBlockDev("swap")
	a, err := New(Options{Machine: m, Protocol: ProtocolRW, SwapDev: dev})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
	for i := 0; i < 4; i++ {
		a.Store(0, va+arch.Vaddr(i*arch.PageSize), 1)
	}
	if n, err := a.SwapOut(0, va, 4*arch.PageSize); err != nil || n != 4 {
		t.Fatalf("swapout n=%d err=%v", n, err)
	}
	a.Destroy(0)
	m.Quiesce()
	if dev.InUse() != 0 {
		t.Errorf("destroy leaked %d swap blocks", dev.InUse())
	}
	if got := m.Phys.KindFrames(mem.KindPT); got != 0 {
		t.Errorf("destroy leaked %d PT frames", got)
	}
}
