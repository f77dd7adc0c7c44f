package core

import (
	"errors"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// liveFileIDs counts the object ids the machine's files hold.
func liveFileIDs(phys *mem.PhysMem) (n int) {
	for id := uint32(1); id <= mem.MaxObjID; id++ {
		if phys.FileByID(id) != nil {
			n++
		}
	}
	return n
}

// TestMarkIsTotal: Tx.Mark stores a status word, so it must refuse — with
// ErrBadRange and the tree untouched — every status the word cannot hold
// or the machine cannot resolve, instead of truncating a field into its
// neighbour or recording a file the fault handler would then dereference.
// (Before the word, the nil-file row returned nil and the next Store
// panicked inside pageFault with the PT-page lock held; the garbage row
// returned nil and Query handed the garbage back.)
func TestMarkIsTotal(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			swap := mem.NewBlockDev("swap")
			a.SetSwapDev(swap)
			mapped := mem.NewFile(m.Phys, "mapped", 1<<20)
			if _, err := a.MmapFile(0, mapped, 0, arch.PageSize, arch.PermRead, true); err != nil {
				t.Fatal(err)
			}
			unmapped := mem.NewFile(m.Phys, "unmapped", 1<<20)
			const pages, top = 4, 1<<32 - 1
			lo := arch.Vaddr(0x5000_0000)
			hi := lo + pages*arch.PageSize
			if err := a.MmapFixed(0, lo, pages*arch.PageSize, arch.PermRW, 0); err != nil {
				t.Fatal(err)
			}
			anon := pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW}
			bad := map[string]pt.Status{
				"garbage in every field":  pt.Status{Kind: 9, Perm: 0xffff}.WithKey(200).WithHuge(7),
				"unknown kind":            {Kind: 7, Perm: arch.PermRW},
				"Mapped":                  pt.MappedStatus(5, arch.PermRW, 0, 1),
				"Mapped made anonymous":   func() pt.Status { s := pt.MappedStatus(5, arch.PermRW, 0, 1); s.Kind = pt.StatusPrivateAnon; return s }(),
				"a seventh permission":    {Kind: pt.StatusPrivateAnon, Perm: arch.PermRW | 1<<6},
				"key beyond MaxProtKey":   anon.WithKey(arch.MaxProtKey + 1),
				"huge level 1":            anon.WithHuge(1),
				"huge level 4":            anon.WithHuge(4),
				"huge level -1":           anon.WithHuge(-1),
				"Invalid with a perm":     {Perm: arch.PermRW},
				"shared file, nil file":   pt.FileStatus(pt.StatusSharedFile, arch.PermRW, nil, 0),
				"private file, nil file":  pt.FileStatus(pt.StatusPrivateFile, arch.PermRW, nil, 0),
				"shared anon, nil file":   pt.FileStatus(pt.StatusSharedAnon, arch.PermRW, nil, 0),
				"file nobody maps":        pt.FileStatus(pt.StatusSharedFile, arch.PermRW, unmapped, 0),
				"file kind, no file":      {Kind: pt.StatusPrivateFile, Perm: arch.PermRW},
				"offset beyond the word":  pt.FileStatus(pt.StatusSharedFile, arch.PermRW, mapped, top+1),
				"last page beyond it":     pt.FileStatus(pt.StatusSharedFile, arch.PermRW, mapped, top-pages+2),
				"swapped, no device":      pt.SwappedStatus(arch.PermRW, 0, 1),
				"swapped, unknown device": pt.SwappedStatus(arch.PermRW, a.swapID+1, 1),
				"block beyond the word":   pt.SwappedStatus(arch.PermRW, a.swapID, top+1),
			}
			for name, s := range bad {
				c, err := a.Lock(0, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Mark(lo, hi, s); !errors.Is(err, mm.ErrBadRange) {
					t.Errorf("%s: Mark(%+v) = %v, want ErrBadRange", name, s, err)
				}
				for va := lo; va < hi; va += arch.PageSize {
					if st, err := c.Query(va); err != nil || st != anon {
						t.Errorf("%s: page %#x reads %+v, %v after the refused Mark", name, va, st, err)
					}
				}
				c.Close()
				checkQuiet(t, a)
			}
			// The widest of everything that does fit is stored and read back.
			good := map[string]pt.Status{
				"anon, widest attributes": pt.Status{Kind: pt.StatusPrivateAnon, Perm: 1<<6 - 1}.WithKey(arch.MaxProtKey).WithHuge(3),
				"last page at the top":    pt.FileStatus(pt.StatusSharedFile, arch.PermRW, mapped, top-pages+1),
				"private file":            pt.FileStatus(pt.StatusPrivateFile, arch.PermRead, mapped, 1),
				"top block":               pt.SwappedStatus(arch.PermRW, a.swapID, top),
				"nothing":                 {},
			}
			for name, s := range good {
				c, err := a.Lock(0, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Mark(lo, hi, s); err != nil {
					t.Errorf("%s: Mark(%+v) = %v", name, s, err)
				}
				for i := uint64(0); i < pages; i++ {
					if st, err := c.Query(lo + arch.Vaddr(i*arch.PageSize)); err != nil || st != s.SlidBy(i) {
						t.Errorf("%s: page %d reads %+v, %v, want %+v", name, i, st, err, s.SlidBy(i))
					}
				}
				if s.Kind == pt.StatusSwapped {
					// Four pages naming one block: take three back before
					// the teardown frees it once per entry.
					if err := c.clearMeta(lo+arch.PageSize, hi); err != nil {
						t.Fatal(err)
					}
					swap.AllocBlock()
				}
				if err := c.Mark(lo, hi, pt.Status{}); err != nil {
					t.Fatal(err)
				}
				c.Close()
				checkQuiet(t, a)
			}
			if swap.InUse() != 0 {
				t.Errorf("%d swap blocks in use after the table", swap.InUse())
			}

			// The syscalls refuse the same things before any tree write:
			// no PT page, no registration and no object id is left behind.
			var held []arch.Vaddr
			for n := liveFileIDs(m.Phys); n < mem.MaxObjID; n++ {
				va, err := a.MmapSharedAnon(0, arch.PageSize, arch.PermRW)
				if err != nil {
					t.Fatalf("MmapSharedAnon with %d ids live: %v", n, err)
				}
				held = append(held, va)
			}
			ptPages := a.tree.PTPageCount.Load()
			_, records := registrations(mapped, a)
			if _, err := a.MmapFile(0, mapped, top, 2*arch.PageSize, arch.PermRW, true); !errors.Is(err, mm.ErrBadRange) {
				t.Errorf("MmapFile past the payload width = %v, want ErrBadRange", err)
			}
			if _, err := a.MmapSharedAnon(0, arch.PageSize, arch.PermRW); !errors.Is(err, mem.ErrObjTableFull) {
				t.Errorf("MmapSharedAnon with the object table full = %v, want ErrObjTableFull", err)
			}
			if _, err := a.MmapFile(0, unmapped, 0, arch.PageSize, arch.PermRW, false); !errors.Is(err, mem.ErrObjTableFull) {
				t.Errorf("MmapFile with the object table full = %v, want ErrObjTableFull", err)
			}
			if _, held := registrations(mapped, a); a.tree.PTPageCount.Load() != ptPages || held != records || unmapped.ID() != 0 {
				t.Errorf("refused mappings left %d PT pages (%d before), %d registrations (%d before), file id %d",
					a.tree.PTPageCount.Load(), ptPages, held, records, unmapped.ID())
			}
			for _, va := range held {
				if err := a.Munmap(0, va, arch.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			if n := liveFileIDs(m.Phys); n != 1 {
				t.Errorf("%d file ids live with one file mapped", n)
			}
			checkRegistrations(t, m.Phys, []*mem.File{mapped, unmapped}, a)
			checkQuiet(t, a)
			a.Destroy(0)
			if n := liveFileIDs(m.Phys); n != 0 {
				t.Errorf("%d file ids live after Destroy", n)
			}
			checkClean(t, m)
		})
	}
}

// TestObjectTableChurn: MmapSharedAnon makes one kernel-internal file
// per call, so the object table must recycle — 20 000 map/unmap cycles
// on one machine never exhaust its 4 095 ids and leave it empty — and an
// id must outlive the mapping that took it for as long as any space
// still names it: a forked child keeps its parent's file registered
// after the parent unmaps.
func TestObjectTableChurn(t *testing.T) {
	a, m := newSpace(t, ProtocolAdv)
	for i := 0; i < 20000; i++ {
		va, err := a.MmapSharedAnon(0, 4*arch.PageSize, arch.PermRW)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := a.Munmap(0, va, 4*arch.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveFileIDs(m.Phys); n != 0 {
		t.Fatalf("%d file ids live after 20000 map/unmap cycles", n)
	}

	va, err := a.MmapSharedAnon(0, 2*arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(0, va, 7); err != nil {
		t.Fatal(err)
	}
	forked, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := forked.(*AddrSpace)
	if err := a.Munmap(0, va, 2*arch.PageSize); err != nil {
		t.Fatal(err)
	}
	// Churn the ids the parent gave back: none may land on the child's.
	for i := 0; i < 2*mem.MaxObjID; i++ {
		v, err := a.MmapSharedAnon(0, arch.PageSize, arch.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Munmap(0, v, arch.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveFileIDs(m.Phys); n != 1 {
		t.Fatalf("%d file ids live while the child maps the file, want 1", n)
	}
	// The second page was never faulted: the child reaches the file
	// through the id in its copied status word.
	if err := child.Store(1, va+arch.PageSize, 9); err != nil {
		t.Fatalf("child faults the parent's unmapped shared page: %v", err)
	}
	if b, err := child.Load(1, va); err != nil || b != 7 {
		t.Fatalf("child reads %d, %v from the shared page the parent wrote 7 to", b, err)
	}
	checkQuiet(t, child)
	child.Destroy(1)
	a.Destroy(0)
	if n := liveFileIDs(m.Phys); n != 0 {
		t.Errorf("%d file ids live after both spaces are gone", n)
	}
}

// TestVirtCycleAllocatesNothing: a warmed Mmap → Mprotect → Munmap of an
// untouched 16-KiB region — the virt_churn unit — performs no Go heap
// allocation: the status is a word packed on the stack and edited in
// place, and the metadata arrays it lands in are already there.
func TestVirtCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, p := range protocols {
		a, m := newSpace(t, p)
		cycle := func() {
			va, err := a.Mmap(0, 4*arch.PageSize, arch.PermRW, 0)
			if err == nil {
				err = a.Mprotect(0, va, 4*arch.PageSize, arch.PermRead)
			}
			if err == nil {
				err = a.Munmap(0, va, 4*arch.PageSize)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(2000, cycle); got != 0 {
			t.Errorf("%v: warmed mmap/mprotect/munmap cycle allocates %.3f objects per run, want 0", p, got)
		}
		a.Destroy(0)
		checkClean(t, m)
	}
}
