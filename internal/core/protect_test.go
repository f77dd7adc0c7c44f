package core

import (
	"fmt"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestProtectSweepMatchesPerPage: Protect and SetProtKey over a range that
// fully covers leaf tables sweep each table in one pass; issued one page
// at a time the same operations never cover a table and take the
// per-entry path. Twin spaces, built by the same steps on twin machines,
// each hold two leaf tables that mix present exclusive pages, pages a
// forked child still shares, virtual, swapped and file status words and
// holes, next to a 2-MiB huge leaf. After every operation the two agree
// page for page — Query, and the permission, key and COW bit of the PTE
// that decides the page — and both stay well formed and audited. Shared
// pages protected back to RW stay copy-on-write.
func TestProtectSweepMatchesPerPage(t *testing.T) {
	const (
		base   = arch.Vaddr(1) << 30
		span   = arch.Vaddr(1) << 21
		tables = 2 * span
		hi     = tables + span // the huge neighbour follows the tables
		pages  = int(tables / arch.PageSize)
	)
	type op struct {
		perm arch.Perm // a Protect, or a SetProtKey when 0
		key  arch.ProtKey
	}
	ops := []op{{perm: arch.PermRead}, {key: 5}, {perm: arch.PermRW}, {key: 0}, {perm: arch.PermRead | arch.PermExec}}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			// build makes one twin; shared is the forked child, which keeps
			// the last quarter of the tables and the huge leaf.
			build := func() (a, shared *AddrSpace, m *cpusim.Machine) {
				m = cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
				a, err := New(Options{Machine: m, Protocol: p, ISA: arch.X8664(true)})
				if err != nil {
					t.Fatal(err)
				}
				f := mem.NewFile(m.Phys, "f", uint64(pages)*arch.PageSize)
				if _, err := a.MmapFile(0, f, 0, arch.PageSize, arch.PermRead, true); err != nil {
					t.Fatal(err)
				}
				if err := a.MmapFixed(0, base, uint64(tables), arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatal(err)
				}
				if err := a.MmapFixed(0, base+tables, uint64(span), arch.PermRW, mm.FlagPopulate|mm.FlagHuge2M); err != nil {
					t.Fatal(err)
				}
				if _, level, _ := a.tree.Walk(base + tables); level != 2 {
					t.Fatalf("the neighbour is mapped at level %d, want a 2-MiB leaf", level)
				}
				forked, err := a.Fork(0)
				if err != nil {
					t.Fatal(err)
				}
				shared = forked.(*AddrSpace)
				if err := shared.Munmap(0, base, uint64(tables)*3/4); err != nil {
					t.Fatal(err)
				}
				c, err := a.Lock(0, base, base+tables)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pages; i++ {
					va := base + arch.Vaddr(i)*arch.PageSize
					var s pt.Status
					switch i % 16 {
					case 3: // a hole
					case 5:
						s = pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW}
					case 7:
						s = pt.FileStatus(pt.StatusPrivateFile, arch.PermRW, f, uint64(i))
					default:
						continue
					}
					if err := c.Mark(va, va+arch.PageSize, s); err != nil {
						t.Fatal(err)
					}
				}
				c.Close()
				for i := 9; i < pages*3/4; i += 16 {
					// Written first, so the copy-on-write PTE the fork left
					// becomes the sole mapper's writable one SwapOut takes.
					va := base + arch.Vaddr(i)*arch.PageSize
					if err := a.Store(0, va, byte(i)); err != nil {
						t.Fatal(err)
					}
					if n, err := a.SwapOut(0, va, arch.PageSize); err != nil || n != 1 {
						t.Fatalf("SwapOut of page %d: %d, %v", i, n, err)
					}
				}
				return a, shared, m
			}
			sweep, sweepChild, sweepM := build()
			perPage, perPageChild, perPageM := build()

			for step, o := range ops {
				apply := func(a *AddrSpace, lo, hi arch.Vaddr) {
					c, err := a.Lock(0, base, base+hi)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if o.perm != 0 {
						err = c.Protect(lo, hi, o.perm)
					} else {
						err = c.SetProtKey(lo, hi, o.key)
					}
					if err != nil {
						t.Fatalf("step %d [%#x, %#x): %v", step, lo, hi, err)
					}
				}
				apply(sweep, base, base+hi)
				for i := 0; i < pages; i++ {
					va := base + arch.Vaddr(i)*arch.PageSize
					apply(perPage, va, va+arch.PageSize)
				}
				apply(perPage, base+tables, base+hi)

				cow := 0
				for va := base; va < base+hi; va += arch.PageSize {
					got, want := pageState(t, sweep, va), pageState(t, perPage, va)
					if got != want {
						t.Fatalf("step %d %+v, page %#x: swept %s, page by page %s", step, o, va, got, want)
					}
					if o.perm&arch.PermWrite != 0 && got.mapped && sweepM.Phys.Desc(sweepM.Phys.HeadOf(got.status.Page())).MapCount() > 1 {
						if got.perm&arch.PermCOW == 0 || got.perm&arch.PermWrite != 0 {
							t.Fatalf("step %d: shared page %#x protected to %v", step, va, got.perm)
						}
						cow++
					}
				}
				if o.perm&arch.PermWrite != 0 && cow < pages/4 {
					t.Fatalf("step %d: %d shared pages checked, want the child's quarter and the huge leaf", step, cow)
				}
				checkQuiet(t, sweep)
				checkQuiet(t, perPage)
			}
			for _, a := range []*AddrSpace{sweepChild, sweep, perPageChild, perPage} {
				a.Destroy(0)
			}
			checkClean(t, sweepM)
			checkClean(t, perPageM)
		})
	}
}

// protectedPage is what TestProtectSweepMatchesPerPage compares per page.
type protectedPage struct {
	status pt.Status
	mapped bool
	level  int
	perm   arch.Perm
	key    arch.ProtKey
}

func (p protectedPage) String() string {
	return fmt.Sprintf("%+v (PTE present %v, level %d, perm %v, key %d)", p.status, p.mapped, p.level, p.perm, p.key)
}

// pageState reads va's status through Query and its deciding PTE through
// the hardware walk.
func pageState(t *testing.T, a *AddrSpace, va arch.Vaddr) protectedPage {
	t.Helper()
	c, err := a.Lock(0, va, va+arch.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Query(va)
	if err != nil {
		t.Fatal(err)
	}
	p := protectedPage{status: st}
	if pte, level, ok := a.tree.Walk(va); ok {
		p.mapped, p.level, p.perm, p.key = true, level, a.isa.PermOf(pte), a.isa.ProtKeyOf(pte)
	}
	return p
}

// TestARM64ReadOnlyLeafHasNoDBM: an arm64 leaf that loses write
// permission loses DBM (descriptor bit 51) with it and gains AP[2]
// (bit 7). Under FEAT_HAFDBS a read-only descriptor with DBM set is
// writable-clean, so hardware may write the page. The codec half takes
// a level-1 and a level-2 RW leaf to read-only; the end-to-end half
// populates a whole leaf table, a few pages beside it and a 2-MiB huge
// leaf RW on both protocols, Mprotects them read-only — the table
// through the sweep, the pages one by one, the huge leaf whole — and
// finds no leaf with DBM.
func TestARM64ReadOnlyLeafHasNoDBM(t *testing.T) {
	const (
		dbm = uint64(1) << 51
		ap2 = uint64(1) << 7
	)
	isa := arch.ARM64()
	for _, level := range []int{1, 2} {
		rw := isa.EncodeLeaf(42, arch.PermRW|arch.PermUser, level)
		if rw&dbm == 0 || rw&ap2 != 0 {
			t.Fatalf("L%d RW leaf %#x: want DBM set and AP[2] clear", level, rw)
		}
		ro := isa.WithPerm(rw, arch.PermRead|arch.PermUser, level)
		if ro&dbm != 0 || ro&ap2 == 0 {
			t.Errorf("L%d read-only leaf %#x: want DBM clear and AP[2] set", level, ro)
		}
	}
	const (
		span  = arch.Vaddr(1) << 21
		base  = arch.Vaddr(1) << 30
		pages = 8
	)
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14})
			a, err := New(Options{Machine: m, Protocol: p, ISA: isa})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.MmapFixed(0, base, uint64(span)+pages*arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
				t.Fatal(err)
			}
			if err := a.MmapFixed(0, base+2*span, uint64(span), arch.PermRW, mm.FlagPopulate|mm.FlagHuge2M); err != nil {
				t.Fatal(err)
			}
			if err := a.Mprotect(0, base, uint64(span), arch.PermRead); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := a.Mprotect(0, base+span+arch.Vaddr(i)*arch.PageSize, arch.PageSize, arch.PermRead); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Mprotect(0, base+2*span, uint64(span), arch.PermRead); err != nil {
				t.Fatal(err)
			}
			check := func(va arch.Vaddr, wantLevel int) {
				pte, level, ok := a.tree.Walk(va)
				if !ok || level != wantLevel {
					t.Fatalf("%#x: mapped %v at level %d, want level %d", va, ok, level, wantLevel)
				}
				if pte&dbm != 0 || pte&ap2 == 0 || isa.PermOf(pte).Contains(arch.PermWrite) {
					t.Errorf("%#x: L%d leaf %#x after Mprotect(PermRead): want DBM clear, AP[2] set, no write", va, level, pte)
				}
			}
			for va := base; va < base+span+pages*arch.PageSize; va += arch.PageSize {
				check(va, 1)
			}
			check(base+2*span, 2)
			checkWF(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}
