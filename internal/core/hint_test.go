package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/cpusim"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// coveringPage locks [lo, hi) at the given floor on core and returns the
// covering page the lock protocol chose.
func coveringPage(t *testing.T, a *AddrSpace, core int, lo, hi arch.Vaddr, minLevel int) [3]uint64 {
	t.Helper()
	c, err := a.LockLevel(core, lo, hi, minLevel)
	if err != nil {
		t.Fatalf("lock [%#x, %#x) at level %d: %v", lo, hi, minLevel, err)
	}
	defer c.Close()
	return [3]uint64{uint64(c.root), uint64(c.rootLevel), uint64(c.rootBase)}
}

// TestHintedLockMatchesTraversal: core 0's cached cursor starts every
// CortenMM_adv transaction at the page its last one covered when it can;
// whatever it starts from, it must end on the page a fresh cursor's
// lockless traversal finds — never coarser, never finer, never a pruned
// one. The tree holds populated tables, a pruned span, a collapsed huge
// leaf, a split one, a grown mremap and fork's COW marks.
func TestHintedLockMatchesTraversal(t *testing.T) {
	m := cpusim.New(cpusim.Config{Cores: 4, Frames: 1 << 15})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	span := arch.Vaddr(arch.SpanBytes(2))
	base := arch.Vaddr(arch.SpanBytes(3)) // a level-2 page covers [base, base+1 GiB)
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	must("populate", a.MmapFixed(0, base, uint64(2*span), arch.PermRW, mm.FlagPopulate))
	must("populate huge", a.MmapFixed(0, base+2*span, uint64(2*span), arch.PermRW, mm.FlagPopulate))
	must("collapse", a.CollapseHuge(0, base+2*span))
	must("collapse", a.CollapseHuge(0, base+3*span))
	must("split", a.Mprotect(0, base+3*span+5*arch.PageSize, arch.PageSize, arch.PermRead))
	must("mmap", a.MmapFixed(0, base+4*span, uint64(2*span), arch.PermRW, 0))
	for _, va := range []arch.Vaddr{base + 4*span, base + 5*span + 7*arch.PageSize} {
		must("touch", a.Touch(0, va, pt.AccessWrite))
	}
	// An unmap of exactly a span covers, and keeps, its table; one that
	// reaches a page past it covers the parent and prunes the table.
	must("prune", a.Munmap(0, base+4*span, uint64(span+arch.PageSize)))
	must("mmap", a.MmapFixed(0, base+6*span, 4*arch.PageSize, arch.PermRW, 0))
	must("store", a.Store(0, base+6*span, 9))
	_, err = a.Mremap(0, base+6*span, 4*arch.PageSize, 600*arch.PageSize)
	must("mremap", err)
	child, err := a.Fork(0)
	must("fork", err)
	defer child.Destroy(0)

	// fresh is what a cursor without a hint finds: core 1's hint is
	// cleared before every lock.
	fresh := func(lo, hi arch.Vaddr, minLevel int) [3]uint64 {
		a.cursors[1].c.hint = coverHint{}
		return coveringPage(t, a, 1, lo, hi, minLevel)
	}
	hits := 0
	check := func(lo, hi arch.Vaddr, minLevel int) {
		t.Helper()
		h := a.cursors[0].c.hint
		warm := coveringPage(t, a, 0, lo, hi, minLevel)
		if want := fresh(lo, hi, minLevel); warm != want {
			t.Fatalf("[%#x, %#x) level>=%d: warm cursor (hint pfn %#x level %d) covered %v, traversal %v",
				lo, hi, minLevel, h.pfn, h.level, warm, want)
		}
		if h.st != nil && uint64(h.pfn) == warm[0] {
			hits++
		}
	}

	rng := rand.New(rand.NewSource(29))
	lo0 := base - span // ranges also cross into the level-2 page below base
	for i := 0; i < 3000; i++ {
		lo := lo0 + arch.Vaddr(rng.Intn(int(9*span/arch.PageSize)))*arch.PageSize
		pages := 1 + rng.Intn(8)
		if rng.Intn(8) == 0 {
			pages = 1 + rng.Intn(int(2*span/arch.PageSize))
		}
		hi := lo + arch.Vaddr(pages)*arch.PageSize
		minLevel := 1 + rng.Intn(3)
		check(lo, hi, minLevel)
		check(lo, hi, minLevel) // the same range again: a hint hit when the page stands
	}

	// Prune the page the warm cursor holds as its hint, let the monitor
	// free it, map the span again and lock there: the hinted state reads
	// stale and the lock lands on the new table.
	va := base + 5*span + 7*arch.PageSize
	check(va, va+arch.PageSize, 1)
	old := a.cursors[0].c.hint
	if old.level != 1 {
		t.Fatalf("hint after locking a mapped page is at level %d, want its leaf table", old.level)
	}
	must("prune hinted", a.Munmap(2, base+4*span, uint64(2*span)))
	m.Quiesce()
	must("remap", a.MmapFixed(2, base+5*span, uint64(span), arch.PermRW, 0))
	must("touch", a.Touch(2, va, pt.AccessWrite))
	if !old.st.Stale.Load() {
		t.Fatal("the pruned table's state does not read stale")
	}
	check(va, va+arch.PageSize, 1)
	if a.cursors[0].c.hint.st == old.st {
		t.Fatal("the warm cursor kept a pruned page as its hint")
	}
	check(va, va+arch.PageSize, 1)
	if hits < 1000 {
		t.Errorf("only %d warm locks ended on their hinted page", hits)
	}

	checkQuiet(t, a)
	child.Destroy(0)
	a.Destroy(0)
	checkClean(t, m)
}

// TestHintVsPrune races core 0's hinted Mprotects inside one 2-MiB span
// against core 1 unmapping a range over the whole span — which covers the
// parent and prunes the leaf table core 0's hint names — then re-mapping
// and touching it. No Mprotect may edit a pruned table: one that ran
// while the span stayed mapped throughout must still show its permission
// through Query.
func TestHintVsPrune(t *testing.T) {
	rounds := 3000
	if raceEnabled {
		rounds = 400
	}
	m := cpusim.New(cpusim.Config{Cores: 2, Frames: 1 << 14, TickEvery: 1})
	a, err := New(Options{Machine: m, Protocol: ProtocolAdv})
	if err != nil {
		t.Fatal(err)
	}
	span := arch.SpanBytes(2)
	base := arch.Vaddr(arch.SpanBytes(3))
	if err := a.MmapFixed(1, base, span, arch.PermRW, 0); err != nil {
		t.Fatal(err)
	}
	// gen is odd while core 1 is between unmapping and having re-mapped
	// and touched the span; checked counts core 0's Mprotects that ran
	// wholly inside one even generation.
	var gen atomic.Uint64
	var checked atomic.Int64
	var done, stopped atomic.Bool
	m.Run(2, func(core int) {
		if core == 1 {
			defer done.Store(true)
			for i := 0; i < rounds; i++ {
				gen.Add(1)
				if err := a.Munmap(1, base, 2*span); err != nil {
					t.Errorf("round %d: munmap: %v", i, err)
					return
				}
				if err := a.MmapFixed(1, base, span, arch.PermRW, 0); err != nil {
					t.Errorf("round %d: mmap: %v", i, err)
					return
				}
				for p := 0; p < 8; p++ {
					if err := a.Touch(1, base+arch.Vaddr(p)*arch.PageSize, pt.AccessRead); err != nil {
						t.Errorf("round %d: touch: %v", i, err)
						return
					}
				}
				gen.Add(1)
				// Every other round, hold the span mapped until core 0 has
				// run a few Mprotects against it.
				for n := checked.Load() + 3; i%2 == 0 && checked.Load() < n && !stopped.Load(); {
					runtime.Gosched()
				}
			}
			return
		}
		defer stopped.Store(true)
		for i := 0; !done.Load(); i++ {
			va := base + arch.Vaddr(i%8)*arch.PageSize
			perm := arch.PermRead
			if i%2 == 1 {
				perm = arch.PermRW
			}
			g := gen.Load()
			if err := a.Mprotect(0, va, arch.PageSize, perm); err != nil {
				t.Errorf("mprotect %#x: %v", va, err)
				return
			}
			c, err := a.Lock(0, va, va+arch.PageSize)
			if err != nil {
				t.Errorf("lock %#x: %v", va, err)
				return
			}
			s, err := c.Query(va)
			c.Close()
			if err != nil {
				t.Errorf("query %#x: %v", va, err)
				return
			}
			if g%2 == 0 && gen.Load() == g {
				if s.Perm&arch.PermRW != perm {
					t.Errorf("mprotect %#x to %v in a mapped span: query reads %v", va, perm, s.Perm)
					return
				}
				checked.Add(1)
			}
		}
	})
	if checked.Load() == 0 {
		t.Error("no Mprotect landed while the span stayed mapped")
	}
	checkQuiet(t, a)
	a.Destroy(0)
	checkClean(t, m)
}
