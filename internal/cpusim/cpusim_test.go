package cpusim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"cortenmm/internal/arch"
	"cortenmm/internal/pt"
	"cortenmm/internal/tlb"
)

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.Cores != 4 || m.NUMANodes != 1 {
		t.Errorf("defaults: cores=%d nodes=%d", m.Cores, m.NUMANodes)
	}
	if m.Phys.NFrames() != 1<<16 {
		t.Errorf("frames = %d", m.Phys.NFrames())
	}
}

func TestNodeOf(t *testing.T) {
	m := New(Config{Cores: 8, NUMANodes: 2})
	// Cluster-block assignment: cores 0..3 on node 0, 4..7 on node 1.
	for c := 0; c < 8; c++ {
		want := c / 4
		if got := m.NodeOf(c); got != want {
			t.Errorf("NodeOf(%d) = %d, want %d", c, got, want)
		}
	}
	for n := 0; n < 2; n++ {
		cores := m.NodeCores(n)
		if len(cores) != 4 {
			t.Fatalf("node %d has %d cores, want 4", n, len(cores))
		}
		for i, c := range cores {
			if c != n*4+i {
				t.Errorf("NodeCores(%d)[%d] = %d, want %d", n, i, c, n*4+i)
			}
		}
	}
	// The physical allocator sees the same topology.
	if m.Phys.Nodes() != 2 {
		t.Errorf("Phys.Nodes() = %d, want 2", m.Phys.Nodes())
	}
}

func TestNodeClamp(t *testing.T) {
	m := New(Config{Cores: 2, NUMANodes: 8})
	if m.NUMANodes != 2 {
		t.Errorf("NUMANodes = %d, want clamped to 2", m.NUMANodes)
	}
}

func TestRunAllCores(t *testing.T) {
	m := New(Config{Cores: 8})
	var mask atomic.Uint32
	m.Run(8, func(core int) { mask.Or(1 << core) })
	if mask.Load() != 0xff {
		t.Errorf("cores ran: %#x", mask.Load())
	}
}

func TestRunTooMany(t *testing.T) {
	m := New(Config{Cores: 2})
	defer func() {
		if recover() == nil {
			t.Error("Run beyond core count did not panic")
		}
	}()
	m.Run(3, func(int) {})
}

func TestASIDsUnique(t *testing.T) {
	m := New(Config{})
	a, b := m.AllocASID(), m.AllocASID()
	if a == b || a == 0 {
		t.Errorf("ASIDs %d %d", a, b)
	}
}

func TestOpTickDrivesLATR(t *testing.T) {
	m := New(Config{Cores: 2, TLBMode: tlb.ModeLATR, TickEvery: 4})
	m.TLB.Insert(1, 1, 0x1000, pt.Translation{PFN: 1, Perm: arch.PermRW, Level: 1})
	m.TLB.ShootdownRange(0, 1, 0x1000, 0x2000)
	if m.TLB.PendingInvalidations() == 0 {
		t.Fatal("LATR should defer")
	}
	for i := 0; i < 4; i++ {
		m.OpTick(0)
	}
	if m.TLB.PendingInvalidations() != 0 {
		t.Error("OpTick did not sweep LATR buffers")
	}
}

func TestPerCoreVADisjoint(t *testing.T) {
	p := NewPerCoreVA(4)
	seen := map[arch.Vaddr]int{}
	for core := 0; core < 4; core++ {
		for i := 0; i < 100; i++ {
			va, err := p.Alloc(core, 16*arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[va]; dup {
				t.Fatalf("va %#x handed to cores %d and %d", va, prev, core)
			}
			seen[va] = core
			if va < UserLo || va >= UserHi {
				t.Fatalf("va %#x outside user range", va)
			}
		}
	}
}

func TestPerCoreVAReuse(t *testing.T) {
	p := NewPerCoreVA(2)
	va, _ := p.Alloc(0, 4*arch.PageSize)
	p.Free(0, va, 4*arch.PageSize)
	va2, _ := p.Alloc(0, 4*arch.PageSize)
	if va2 != va {
		t.Errorf("freed range not reused: %#x vs %#x", va, va2)
	}
	// Cross-core free routes to the owner arena.
	va3, _ := p.Alloc(0, 8*arch.PageSize)
	p.Free(1, va3, 8*arch.PageSize)
	va4, _ := p.Alloc(0, 8*arch.PageSize)
	if va4 != va3 {
		t.Errorf("cross-core freed range not reused by owner: %#x vs %#x", va3, va4)
	}
}

// TestVAFreeIgnoresForeignRanges: Free is handed whatever range an
// unmap found fully allocated, so ranges the allocator never issued —
// below UserLo, beyond an arena's bump pointer, straddling it, or past
// UserHi — must not reach a free list.
func TestVAFreeIgnoresForeignRanges(t *testing.T) {
	const sz = 4 * arch.PageSize
	p := NewPerCoreVA(2)
	g := NewPerCoreVA(1)
	first, _ := p.Alloc(0, sz)
	g.Alloc(0, sz)
	for _, va := range []arch.Vaddr{
		UserLo - sz,                       // fixed-mapping territory
		first + sz,                        // at the bump pointer
		first + sz/2,                      // straddles it
		p.arenas[1].base,                  // arena 1 has handed out nothing
		UserHi - sz,                       // far end of the last arena
		UserHi + 16*sz,                    // beyond every arena
		arch.Vaddr(0),                     // page zero
		first + arch.Vaddr(p.span) - sz/2, // straddles two arenas
	} {
		p.Free(0, va, sz)
		g.Free(0, va, sz)
	}
	for i := range p.arenas {
		if n := len(p.arenas[i].freeOf(sz)); n != 0 {
			t.Errorf("per-core arena %d recycled %d foreign ranges", i, n)
		}
	}
	if n := len(g.arenas[0].freeOf(sz)); n != 0 {
		t.Errorf("global arena recycled %d foreign ranges", n)
	}
	// The clone keeps the same bounds.
	c := p.Clone()
	c.Free(0, UserLo-sz, sz)
	c.Free(0, first, sz)
	if got := c.arenas[0].freeOf(sz); len(got) != 1 || got[0] != first {
		t.Errorf("clone free list = %#x, want just %#x", got, first)
	}
}

// TestVAFreeRefusesOverlap: the free ranges stay pairwise disjoint, so a
// range that is free already — wholly or in part, in any size class —
// cannot be freed again, while one that was re-allocated can.
func TestVAFreeRefusesOverlap(t *testing.T) {
	const pg = arch.PageSize
	for _, arenas := range []int{2, 1} {
		v := NewPerCoreVA(arenas)
		va, _ := v.Alloc(0, 4*pg)
		v.Free(0, va, 4*pg)
		v.Free(0, va, 4*pg)      // exact repeat
		v.Free(0, va+pg, 2*pg)   // inside
		v.Free(0, va+2*pg, 2*pg) // tail overlap
		c := v.Clone()
		for i, x := range []*PerCoreVA{v, c} {
			name := fmt.Sprintf("%d arenas (clone %v)", arenas, i == 1)
			if got, _ := x.Alloc(0, 4*pg); got != va {
				t.Fatalf("%s: recycled %#x, want %#x", name, got, va)
			}
			if got, _ := x.Alloc(0, 4*pg); got == va {
				t.Fatalf("%s: %#x handed out twice", name, va)
			}
			if got, _ := x.Alloc(0, 2*pg); got >= va && got < va+4*pg {
				t.Fatalf("%s: %#x handed out inside live [%#x, +4 pages)", name, got, va)
			}
			// Re-allocated, so no longer free: pieces recycle again.
			x.Free(0, va, 2*pg)
			x.Free(0, va+2*pg, 2*pg)
			x.Free(0, va, 4*pg) // covers both free halves
			a, _ := x.Alloc(0, 2*pg)
			b, _ := x.Alloc(0, 2*pg)
			if a != va+2*pg || b != va {
				t.Fatalf("%s: halves came back as %#x, %#x", name, a, b)
			}
			if got, _ := x.Alloc(0, 4*pg); got == va {
				t.Fatalf("%s: %#x handed out under its live halves", name, va)
			}
		}
	}
}

// TestVAFreeMapMatchesModel drives one arena with random allocations and
// frees — repeats, sub-ranges and spans crossing bitmap words included —
// against a page-set model: a free is accepted iff none of its pages is
// free already, and no page is ever held twice.
func TestVAFreeMapMatchesModel(t *testing.T) {
	const pg = arch.PageSize
	g := NewPerCoreVA(1)
	rng := rand.New(rand.NewSource(1))
	held := map[arch.Vaddr]bool{} // pages handed out and not freed since
	free := map[arch.Vaddr]bool{}
	type rg struct {
		va arch.Vaddr
		n  uint64
	}
	var live []rg
	for step := 0; step < 20000; step++ {
		if len(live) == 0 || rng.Intn(3) == 0 {
			n := uint64(1 + rng.Intn(150))
			va, err := g.Alloc(0, n*pg)
			if err != nil {
				t.Fatal(err)
			}
			for p := va; p < va+arch.Vaddr(n*pg); p += pg {
				if held[p] {
					t.Fatalf("step %d: page %#x handed out twice", step, p)
				}
				held[p] = true
				delete(free, p)
			}
			live = append(live, rg{va, n})
			continue
		}
		// Free a random piece of a random range; stale entries of live
		// make it a repeat or an overlap of something already free.
		r := live[rng.Intn(len(live))]
		off := uint64(rng.Intn(int(r.n)))
		n := uint64(1 + rng.Intn(int(r.n-off)))
		va := r.va + arch.Vaddr(off*pg)
		accept := true
		for p := va; p < va+arch.Vaddr(n*pg); p += pg {
			accept = accept && !free[p]
		}
		before := len(g.arenas[0].freeOf(n * pg))
		g.Free(0, va, n*pg)
		if got := len(g.arenas[0].freeOf(n*pg)) > before; got != accept {
			t.Fatalf("step %d: free of %d pages at %#x accepted=%v, model says %v", step, n, va, got, accept)
		}
		if accept {
			for p := va; p < va+arch.Vaddr(n*pg); p += pg {
				free[p] = true
				delete(held, p)
			}
		}
	}
}

// TestGlobalVA: one arena is the global allocator — every core draws
// from it and frees into it.
func TestGlobalVA(t *testing.T) {
	g := NewPerCoreVA(1)
	va, err := g.Alloc(3, 4*arch.PageSize)
	if err != nil || va != UserLo {
		t.Fatalf("va=%#x err=%v", va, err)
	}
	g.Free(0, va, 4*arch.PageSize)
	va2, _ := g.Alloc(1, 4*arch.PageSize)
	if va2 != va {
		t.Error("global free list not reused")
	}
}

func TestVAExhaustion(t *testing.T) {
	p := NewPerCoreVA(2)
	span := (uint64(UserHi) - uint64(UserLo)) / 2
	if _, err := p.Alloc(0, span+arch.PageSize); err == nil {
		t.Error("oversized alloc succeeded")
	}
}

func TestParallelVAAlloc(t *testing.T) {
	m := New(Config{Cores: 8})
	p := NewPerCoreVA(8)
	var fail atomic.Int32
	m.Run(8, func(core int) {
		var held []arch.Vaddr
		for i := 0; i < 1000; i++ {
			va, err := p.Alloc(core, 16*arch.PageSize)
			if err != nil {
				fail.Add(1)
				return
			}
			held = append(held, va)
			if i%3 == 0 {
				p.Free(core, held[len(held)-1], 16*arch.PageSize)
				held = held[:len(held)-1]
			}
		}
	})
	if fail.Load() != 0 {
		t.Error("parallel allocation failed")
	}
}

// freeOf returns the arena's free list for one size.
func (a *arena) freeOf(size uint64) []arch.Vaddr {
	if list := a.free[size]; list != nil {
		return *list
	}
	return nil
}

// TestPerCoreLayout pins one core's machine state — the event clock and
// the transaction word — at whole cache lines, so neighbouring cores'
// brackets never write the same line. (core's test of the same name
// pins the cursor cache.)
func TestPerCoreLayout(t *testing.T) {
	if size := unsafe.Sizeof(tickState{}); size == 0 || size%64 != 0 {
		t.Errorf("tickState is %d bytes, want a multiple of 64", size)
	}
}

// TestTxWord: the word's three answers through nesting, and across
// cores. Space 7 opens, space 9 nests inside it (fork's shape).
func TestTxWord(t *testing.T) {
	m := New(Config{Cores: 2})
	type answers struct{ in, holds7, holds9 bool }
	check := func(when string, want answers) {
		t.Helper()
		if got := (answers{m.InTx(0), m.HoldsTx(0, 7), m.HoldsTx(0, 9)}); got != want {
			t.Errorf("%s: %+v, want %+v", when, got, want)
		}
		if m.InTx(1) || m.HoldsTx(1, 7) {
			t.Errorf("%s: core 1 reads as inside a transaction", when)
		}
	}
	check("idle", answers{})
	if !m.EnterTx(0, 7) {
		t.Error("the first entrant is not the outermost")
	}
	check("in 7", answers{in: true, holds7: true})
	if m.EnterTx(0, 9) {
		t.Error("a nested entrant is reported outermost")
	}
	// The word names only the outermost space: nested, every space is
	// answered "held".
	check("in 7, in 9", answers{in: true, holds7: true, holds9: true})
	m.ExitTx(0)
	check("9 closed", answers{in: true, holds7: true})
	m.ExitTx(0)
	check("7 closed", answers{})
	if !m.EnterTx(0, 9) {
		t.Error("the word did not return to zero")
	}
	check("in 9", answers{in: true, holds9: true}) // the stale 7 is gone
	m.ExitTx(0)
}

// TestTxWordSharedCoreID: goroutines that share a core ID (a
// reverse-mapping walk borrows core 0) enter and leave concurrently;
// exactly one entrant at a time is the outermost, and the depth comes
// back to zero.
func TestTxWordSharedCoreID(t *testing.T) {
	m := New(Config{Cores: 1})
	var owners atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(space uint64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				outermost := m.EnterTx(0, space)
				if outermost && owners.Add(1) != 1 {
					t.Error("two outermost entrants at once")
				}
				if !m.InTx(0) {
					t.Error("inside a transaction and InTx is false")
				}
				if outermost {
					owners.Add(-1)
				}
				m.ExitTx(0)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if m.InTx(0) {
		t.Error("depth did not return to zero")
	}
}

// TestOneAccessPath: the machine has one MMU. Outside the TLB and the
// page-table packages themselves (and the benchmark module, which pins
// their raw surface), non-test code probes the TLB, opens and closes a
// fill and runs the hardware walk from exactly one function —
// Machine.Access — and no kernel keeps a private copy of it.
func TestOneAccessPath(t *testing.T) {
	const root = "../.."
	mmu := map[string]int{"Lookup": 0, "FillBegin": 0, "InsertAt": 0, "WalkAccess": 0}
	retired := map[string]string{"core": "access", "vma": "translate", "radixvm": "translate", "nros": "translate"}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+"/"))
		if d.IsDir() {
			if rel == "benchmark" || rel == "internal/tlb" || rel == "internal/pt" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == retired[filepath.Base(filepath.Dir(path))] {
				t.Errorf("%s: func %s is back", rel, fn.Name.Name)
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if _, ok := mmu[sel.Sel.Name]; ok {
						mmu[sel.Sel.Name]++
						if rel != "internal/cpusim/cpusim.go" || fn.Name.Name != "Access" {
							t.Errorf("%s: %s calls %s; the access path is Machine.Access", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range mmu {
		if n != 1 {
			t.Errorf("%d call sites of %s, want 1", n, name)
		}
	}
}
