package cortenmm_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"cortenmm"
	"cortenmm/internal/mem"
)

func TestPublicQuickstart(t *testing.T) {
	machine := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 4})
	as, err := cortenmm.New(cortenmm.Options{Machine: machine, Protocol: cortenmm.ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Destroy(0)
	va, err := as.Mmap(0, 1<<20, cortenmm.PermRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Store(0, va, 42); err != nil {
		t.Fatal(err)
	}
	b, err := as.Load(0, va)
	if err != nil || b != 42 {
		t.Fatalf("load = %d, %v", b, err)
	}
	if err := as.Munmap(0, va, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := as.Touch(0, va, cortenmm.AccessRead); !errors.Is(err, cortenmm.ErrSegv) {
		t.Errorf("after munmap: %v", err)
	}
}

func TestPublicTransactionalInterface(t *testing.T) {
	as, err := cortenmm.New(cortenmm.Options{Protocol: cortenmm.ProtocolRW})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Destroy(0)
	lo := cortenmm.Vaddr(0x4000_0000)
	tx, err := as.Lock(0, lo, lo+16*cortenmm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Mark(lo, lo+16*cortenmm.PageSize, cortenmm.Status{
		Kind: cortenmm.StatusPrivateAnon,
		Perm: cortenmm.PermRW,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := tx.Query(lo)
	if err != nil || st.Kind != cortenmm.StatusPrivateAnon {
		t.Fatalf("query = %+v, %v", st, err)
	}
	tx.Close()
	if err := as.Touch(0, lo, cortenmm.AccessWrite); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBaselines(t *testing.T) {
	m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 4, NUMANodes: 2})
	mk := []func() (cortenmm.MM, error){
		func() (cortenmm.MM, error) { return cortenmm.NewLinuxBaseline(m, nil) },
		func() (cortenmm.MM, error) { return cortenmm.NewRadixVMBaseline(m, nil) },
		func() (cortenmm.MM, error) { return cortenmm.NewNrOSBaseline(m, nil) },
	}
	for _, f := range mk {
		sys, err := f()
		if err != nil {
			t.Fatal(err)
		}
		va, err := sys.Mmap(0, 4*cortenmm.PageSize, cortenmm.PermRW, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Store(0, va, 7); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if err := sys.Munmap(0, va, 4*cortenmm.PageSize); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		sys.Destroy(0)
	}
}

func TestPublicForkCOW(t *testing.T) {
	as, _ := cortenmm.New(cortenmm.Options{Protocol: cortenmm.ProtocolAdv})
	defer as.Destroy(0)
	va, _ := as.Mmap(0, cortenmm.PageSize, cortenmm.PermRW, 0)
	as.Store(0, va, 1)
	child, err := as.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Destroy(1)
	child.Store(1, va, 2)
	pb, _ := as.Load(0, va)
	cb, _ := child.Load(1, va)
	if pb != 1 || cb != 2 {
		t.Errorf("parent=%d child=%d", pb, cb)
	}
}

func TestPublicRISCV(t *testing.T) {
	as, err := cortenmm.New(cortenmm.Options{ISA: cortenmm.RISCV(), Protocol: cortenmm.ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Destroy(0)
	va, _ := as.Mmap(0, cortenmm.PageSize, cortenmm.PermRW, 0)
	if err := as.Store(0, va, 9); err != nil {
		t.Fatal(err)
	}
}

func TestPublicMachineRun(t *testing.T) {
	m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 8, Frames: 1 << 15})
	as, _ := cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolAdv, PerCoreVA: true})
	defer as.Destroy(0)
	var bad atomic.Int32
	m.Run(8, func(core int) {
		va, err := as.Mmap(core, 8*cortenmm.PageSize, cortenmm.PermRW, 0)
		if err != nil {
			bad.Add(1)
			return
		}
		if err := as.Store(core, va, byte(core)); err != nil {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("parallel public API usage failed")
	}
}

func TestPublicFeatures(t *testing.T) {
	as, _ := cortenmm.New(cortenmm.Options{})
	defer as.Destroy(0)
	f := as.Features()
	if !f.OnDemandPaging || !f.COW || !f.PageSwapping || !f.HugePage {
		t.Errorf("features = %+v", f)
	}
}

// TestUnknownTLBModeIsSync: a TLB mode outside the three protocols runs
// as the default, sync, so a remote core never reads an unmapped page
// through a stale translation.
func TestUnknownTLBModeIsSync(t *testing.T) {
	m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 2, TLB: 3})
	as, err := cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	va, err := as.Mmap(0, cortenmm.PageSize, cortenmm.PermRW, cortenmm.FlagPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Store(1, va, 7); err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(0, va, cortenmm.PageSize); err != nil {
		t.Fatal(err)
	}
	m.Quiesce()
	if b, err := as.Load(1, va); !errors.Is(err, cortenmm.ErrSegv) {
		t.Errorf("load after munmap on core 1 = %d, %v; want %v", b, err, cortenmm.ErrSegv)
	}
	as.Destroy(0)
	if err := m.CheckClean(); err != nil {
		t.Error(err)
	}
}

// TestTinyMachineTopologyAgrees: a machine with too few frames for its
// node count gets as many nodes as its memory can shard into zones, so
// the machine, its physical memory and its TLBs agree on the node
// count, and an allocation on any core is served or refused, never out
// of range.
func TestTinyMachineTopologyAgrees(t *testing.T) {
	for _, frames := range []int{1, 2, 6, 7, 16} {
		m := cortenmm.NewMachine(cortenmm.MachineConfig{Cores: 4, NUMANodes: 4, Frames: frames})
		if got := m.Phys.Nodes(); m.NUMANodes != got {
			t.Errorf("frames=%d: machine has %d nodes, physical memory %d", frames, m.NUMANodes, got)
		}
		if got := len(m.TLB.NodeStats()); m.NUMANodes != got {
			t.Errorf("frames=%d: machine has %d nodes, TLB %d", frames, m.NUMANodes, got)
		}
		as, err := cortenmm.New(cortenmm.Options{Machine: m, Protocol: cortenmm.ProtocolAdv})
		if err != nil {
			t.Fatalf("frames=%d: %v", frames, err)
		}
		for core := 0; core < m.Cores; core++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("frames=%d: populated mmap on core %d panicked: %v", frames, core, r)
					}
				}()
				if _, err := as.Mmap(core, cortenmm.PageSize, cortenmm.PermRW, cortenmm.FlagPopulate); err != nil && !errors.Is(err, mem.ErrOutOfMemory) {
					t.Errorf("frames=%d: populated mmap on core %d: %v, want nil or out of memory", frames, core, err)
				}
			}()
		}
		as.Destroy(0)
		if err := m.CheckClean(); err != nil {
			t.Errorf("frames=%d: %v", frames, err)
		}
	}
}
