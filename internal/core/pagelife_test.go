package core

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
	"cortenmm/internal/rcu"
)

// TestUnlinkedTableFillRace: a leaf table is written with plain stores
// while nothing points to it, and the atomic store that links it is what
// publishes it. Core 0 populates 4 MiB (two level-2 entries, so the
// level-2 page covers the range: bulkFillL2 builds each leaf table and
// the unmap prunes it), then maps the range as two 2-MiB leaves, splits
// one under the walkers with a one-page mprotect and unmaps; core 1 is
// the MMU, loading through WalkAccess all the while; core 2 reads the
// tables directly. Every read of a level-2 entry finds it absent, a huge
// leaf, or a table with all 512 entries written — never a partly filled
// one — and under -race the detector stays silent.
func TestUnlinkedTableFillRace(t *testing.T) {
	const base = arch.Vaddr(1) << 30
	const span = 1 << 21
	rounds := 2000
	if raceEnabled {
		rounds = 200
	}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			m := cpusim.New(cpusim.Config{Cores: 3, Frames: 1 << 14, TickEvery: 1})
			a, err := New(Options{Machine: m, Protocol: p})
			if err != nil {
				t.Fatal(err)
			}
			leafTable := func(idx int) (table arch.PFN, ok bool) {
				cur := a.tree.Root
				for level := arch.Levels; level >= 2; level-- {
					e := a.tree.LoadPTE(cur, arch.IndexAt(base+arch.Vaddr(idx)*span, level))
					if !a.isa.IsPresent(e) || a.isa.IsLeaf(e, level) {
						return 0, false
					}
					cur = a.isa.PFNOf(e)
				}
				return cur, true
			}
			var done atomic.Bool
			var splits, tables atomic.Int64
			m.Run(3, func(core int) {
				switch core {
				case 0:
					defer done.Store(true)
					for i := 0; i < rounds; i++ {
						// A walker descheduled inside its read section holds the
						// frames of every round since; map when they are back.
						for m.Phys.FreeFrames() < 1<<13 {
							m.Reap(0)
							runtime.Gosched()
						}
						fl := mm.FlagPopulate
						if i%2 == 1 {
							fl |= mm.FlagHuge2M
						}
						if err := a.MmapFixed(0, base, 2*span, arch.PermRW, fl); err != nil {
							t.Errorf("round %d: mmap: %v", i, err)
							return
						}
						if _, level, _ := a.tree.Walk(base); level == 2 {
							page := base + arch.Vaddr(i%arch.PTEntries)*arch.PageSize
							if err := a.Mprotect(0, page, arch.PageSize, arch.PermRead); err != nil {
								t.Errorf("round %d: mprotect: %v", i, err)
								return
							}
							splits.Add(1)
						}
						if err := a.Munmap(0, base, 2*span); err != nil {
							t.Errorf("round %d: munmap: %v", i, err)
							return
						}
					}
				case 1:
					for i := 0; !done.Load(); i++ {
						// Byte 1 of a page is core 1's; nobody writes it.
						va := base + arch.Vaddr(i*37%(2*arch.PTEntries))*arch.PageSize + 1
						if v, err := a.Load(1, va); err != nil && !errors.Is(err, errSegv) || v != 0 {
							t.Errorf("load %#x: %d, %v", va, v, err)
							return
						}
					}
				case 2:
					for i := 0; !done.Load(); i++ {
						m.RCU.ReadLock(2)
						if table, ok := leafTable(i % 2); ok {
							tables.Add(1)
							for j := 0; j < arch.PTEntries; j++ {
								if e := a.tree.LoadPTE(table, j); !a.isa.IsPresent(e) {
									t.Errorf("linked leaf table %#x: entry %d reads %#x", table, j, e)
									break
								}
							}
						}
						m.RCU.ReadUnlock(2)
					}
				}
			})
			if splits.Load() == 0 || tables.Load() == 0 {
				t.Errorf("%d huge leaves split, %d linked tables read: the race was not run", splits.Load(), tables.Load())
			}
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestNonExclusivePopulateCarriesNoHint: frames that just ended a life as
// exclusive anonymous pages still hold that life's hint in their mapping
// word — nothing scrubs it at free. Populated again under a shared or a
// copy-on-write permission they are mapped once each and must not
// advertise the old owner: the first mapping of a life replaces the hint,
// and only an exclusive one replaces it with a hint.
func TestNonExclusivePopulateCarriesNoHint(t *testing.T) {
	const span = arch.Vaddr(1) << 21
	lo, hi := 8*span, 9*span
	for _, extra := range []arch.Perm{0, arch.PermCOW, arch.PermShared} {
		m := cpusim.New(cpusim.Config{Cores: 1, Frames: 1 << 12})
		a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
		if err != nil {
			t.Fatal(err)
		}
		var first []arch.PFN
		for life, perm := range []arch.Perm{arch.PermRW, arch.PermRW | extra} {
			c, err := a.Lock(0, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Mark(lo, hi, pt.Status{Kind: pt.StatusPrivateAnon, Perm: perm}); err != nil {
				t.Fatal(err)
			}
			if err := c.PopulateAnon(lo, hi); err != nil {
				t.Fatal(err)
			}
			reused := 0
			for va := lo; va < hi; va += arch.PageSize {
				st, err := c.Query(va)
				if err != nil || st.Kind != pt.StatusMapped {
					t.Fatalf("page %#x: %+v, %v", va, st, err)
				}
				d := m.Phys.Desc(st.Page())
				owner, hint := d.AnonRMap()
				wantOwner, wantHint := any(a), uint64(va)
				if perm&(arch.PermCOW|arch.PermShared) != 0 {
					wantOwner, wantHint = nil, 0
				}
				if d.MapCount() != 1 || owner != wantOwner || hint != wantHint {
					t.Fatalf("perm %v life %d page %#x frame %#x: mapped %d times, hint %v %#x; want once, %v %#x",
						perm, life, va, st.Page(), d.MapCount(), owner, hint, wantOwner, wantHint)
				}
				if life == 0 {
					first = append(first, st.Page())
				} else if slices.Contains(first, st.Page()) {
					reused++
				}
			}
			if life == 1 && reused == 0 {
				t.Errorf("perm %v: the second populate reused none of the first one's frames", perm)
			}
			if err := c.Unmap(lo, hi); err != nil {
				t.Fatal(err)
			}
			c.Close()
			m.Quiesce()
			for _, pfn := range first {
				if d := m.Phys.Desc(pfn); d.MapCount() != 0 {
					t.Fatalf("free frame %#x still mapped %d times", pfn, d.MapCount())
				} else if _, hint := d.AnonRMap(); hint != 0 {
					t.Fatalf("free frame %#x advertises a mapping at %#x", pfn, hint)
				}
			}
		}
		a.Destroy(0)
		checkClean(t, m)
	}
}

// TestHintStaleNeverTrusted: the migration hint is never cleared, only
// outvoted by the count or overwritten, so what the migrator finds may
// name a mapping that is gone. It revalidates under the lock every time:
// a frame whose hint went stale is either moved at the VA that really
// maps it or refused with ErrNotMovable; no other page is touched.
func TestHintStaleNeverTrusted(t *testing.T) {
	const va = arch.Vaddr(1) << 30
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 10})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	daemonOf(m)
	frameAt := func(s *AddrSpace, want byte) arch.PFN {
		t.Helper()
		if v, err := s.Load(0, va); err != nil || v != want {
			t.Fatalf("load: %d, %v; want %d", v, err, want)
		}
		pte, _, ok := s.tree.Walk(va)
		if !ok {
			t.Fatal("page not mapped")
		}
		return s.isa.PFNOf(pte)
	}
	hintOf := func(pfn arch.PFN) (any, uint64) { return m.Phys.Desc(pfn).AnonRMap() }
	// Deferred frees hold references; with them settled, a refusal is the
	// hint's or the revalidation's doing.
	migrate := func(pfn arch.PFN) error {
		m.Quiesce()
		return m.Phys.MigrateFrame(0, pfn, 0)
	}
	mapOne := func(b byte) arch.PFN {
		t.Helper()
		if err := a.MmapFixed(0, va, arch.PageSize, arch.PermRW, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.Store(0, va, b); err != nil {
			t.Fatal(err)
		}
		return frameAt(a, b)
	}

	// An exclusive page is hinted; forked, it is mapped twice and the
	// count outvotes the hint without a write to it.
	pfn := mapOne(1)
	if owner, hint := hintOf(pfn); owner != any(a) || hint != uint64(va) {
		t.Fatalf("exclusive page: hint %v %#x", owner, hint)
	}
	forked, err := a.Fork(0)
	if err != nil {
		t.Fatal(err)
	}
	child := forked.(*AddrSpace)
	if _, hint := hintOf(pfn); hint != 0 || m.Phys.Desc(pfn).MapCount() != 2 {
		t.Fatalf("shared page: hint %#x, mapped %d times", hint, m.Phys.Desc(pfn).MapCount())
	}
	if err := migrate(pfn); !errors.Is(err, mem.ErrNotMovable) {
		t.Fatalf("MigrateFrame of a shared page = %v", err)
	}
	// The child unmaps: the hint is the parent's again, and true. The
	// parent's PTE is still copy-on-write, which revalidation refuses;
	// after the write fault upgrades it in place the page moves.
	if err := child.Munmap(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if owner, hint := hintOf(pfn); owner != any(a) || hint != uint64(va) {
		t.Fatalf("page exclusive again: hint %v %#x", owner, hint)
	}
	if err := migrate(pfn); !errors.Is(err, mem.ErrNotMovable) {
		t.Fatalf("MigrateFrame of a copy-on-write page = %v", err)
	}
	if err := a.Store(0, va, 2); err != nil {
		t.Fatal(err)
	}
	if frameAt(a, 2) != pfn {
		t.Fatal("sole mapper's write fault copied the page")
	}
	if err := migrate(pfn); err != nil {
		t.Fatalf("MigrateFrame of the parent's exclusive page = %v", err)
	}
	if moved := frameAt(a, 2); moved == pfn {
		t.Fatal("migration reported success and moved nothing")
	}
	child.Destroy(0)

	// The other way round: the parent unmaps and the child keeps the page,
	// mapped once, with a hint that still names the parent's VA — where
	// the parent now has another page. Neither is touched.
	if err := a.Munmap(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	pfn = mapOne(3)
	if forked, err = a.Fork(0); err != nil {
		t.Fatal(err)
	}
	child = forked.(*AddrSpace)
	if err := a.Munmap(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	other := mapOne(4)
	if owner, hint := hintOf(pfn); owner != any(a) || hint != uint64(va) || other == pfn {
		t.Fatalf("child's page: hint %v %#x, parent's new frame %#x vs %#x", owner, hint, other, pfn)
	}
	if err := migrate(pfn); !errors.Is(err, mem.ErrNotMovable) {
		t.Fatalf("MigrateFrame through a stale hint = %v", err)
	}
	if frameAt(a, 4) != other || frameAt(child, 3) != pfn {
		t.Fatal("a refused migration moved a page")
	}
	child.Destroy(0)

	// A freed frame keeps its hint bits and reads as unhinted; allocated
	// again as something else, mapped or not, it stays that way.
	if err := a.Munmap(0, va, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	m.Quiesce()
	for _, kind := range []mem.Kind{mem.KindFile, mem.KindPT} {
		var held []rcu.FrameRun
		for {
			got, err := m.Phys.AllocFrame(0, kind)
			if err != nil {
				break
			}
			held = rcu.AppendRun(held, got)
		}
		d := m.Phys.Desc(other)
		if d.Kind != kind {
			t.Fatalf("frame %#x not reallocated as %s", other, kind)
		}
		for _, mapped := range []bool{false, true} {
			if mapped {
				d.Map()
			}
			if _, hint := d.AnonRMap(); hint != 0 {
				t.Errorf("%s frame (mapped %v) advertises a mapping at %#x", kind, mapped, hint)
			}
			if err := migrate(other); !errors.Is(err, mem.ErrNotMovable) {
				t.Errorf("MigrateFrame of a %s frame (mapped %v) = %v", kind, mapped, err)
			}
		}
		d.Unmap()
		m.Phys.PutRuns(0, held)
	}
	a.Destroy(0)
	checkClean(t, m)
}
