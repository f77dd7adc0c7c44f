package mem

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/fault"
)

// armOnce arms site to fire on the check after the first n and on none
// of the k checks after that: a seeded stream whose first draw fires at a
// low probability and whose next k draws do not, found by probing the
// site itself.
func armOnce(t *testing.T, site *fault.Site, n, k uint64) {
	t.Helper()
	const prob = 1.0 / 4096
	for seed := uint64(1); seed < 1<<20; seed++ {
		site.Arm(fault.Config{Seed: seed, Prob: prob})
		ok := site.Fire()
		for i := uint64(0); ok && i < k; i++ {
			ok = !site.Fire()
		}
		if ok {
			site.Arm(fault.Config{Seed: seed, Prob: prob, AfterN: n})
			return
		}
	}
	t.Fatal("no seed fires once")
}

// TestCompactZoneMovesUpward runs one compaction pass over a zone
// shattered by exclusive, hinted order-0 frames, under a Pressure that
// accepts every move: each page moves strictly upward, sources ascend
// while targets descend, no free 2-MiB block is split, and the pass ends
// at the first candidate with no free frame above it. An injected copy
// failure costs exactly its candidate; the pass goes on.
func TestCompactZoneMovesUpward(t *testing.T) {
	defer fault.DisarmAll()
	const frames = 4 << hugeOrder
	m := NewPhysMem(frames, 1)
	owner := &AnonOwner{Space: "space"}
	// Keep every fourth frame of huge blocks 0 and 2, mapped once with a
	// hint; free the rest, so blocks 1 and 3 coalesce whole.
	var all []arch.PFN
	for {
		pfn, err := m.AllocFrame(0, KindAnon)
		if err != nil {
			break
		}
		all = append(all, pfn)
	}
	kept := map[arch.PFN]bool{}
	for _, pfn := range all {
		if pfn%4 == 0 && (pfn>>hugeOrder)%2 == 0 {
			m.Desc(pfn).MapExclusive(owner, uint64(pfn)<<arch.PageShift)
			kept[pfn] = true
		} else {
			m.Put(0, pfn)
		}
	}
	m.DrainPCP()
	if got := m.FreeByOrder(0)[hugeOrder]; got != 2 {
		t.Fatalf("%d free 2-MiB blocks before the pass, want 2", got)
	}

	type pair struct{ src, dst arch.PFN }
	var moves []pair
	m.SetPressure(fakePressure{migrate: func(core int, req MigrateReq) bool {
		if req.Owner != owner.Space || req.VA != uint64(req.Src)<<arch.PageShift {
			t.Errorf("request for %#x carries hint (%v, %#x)", req.Src, req.Owner, req.VA)
		}
		m.Desc(req.Src).Unmap()
		m.Put(core, req.Src)
		moves = append(moves, pair{req.Src, req.Dst})
		return true
	}})
	const failAt = 10 // the eleventh candidate's copy fails
	armOnce(t, fault.MemMigrateCopy, failAt, uint64(len(kept)))
	before := m.MigrationStats()
	got := m.CompactZone(0, 0, 0)
	after := m.MigrationStats()
	if _, fired := fault.MemMigrateCopy.Stats(); fired != 1 {
		t.Fatalf("mem.migrate-copy fired %d times, want 1", fired)
	}
	fault.MemMigrateCopy.Disarm()

	if got == 0 || uint64(got) != after.Migrated-before.Migrated || got != len(moves) {
		t.Fatalf("CompactZone = %d, Migrated delta %d, %d moves", got, after.Migrated-before.Migrated, len(moves))
	}
	// Candidates in PFN order; the pass attempted a prefix of them: every
	// move, the failed copy and the candidate with nothing above it.
	var cands []arch.PFN
	for pfn := arch.PFN(0); pfn < frames; pfn++ {
		if kept[pfn] {
			cands = append(cands, pfn)
		}
	}
	if a, f := after.Attempted-before.Attempted, after.Failed-before.Failed; a != uint64(got)+2 || f != 2 {
		t.Fatalf("attempted %d, failed %d after %d moves; want %d and 2", a, f, got, got+2)
	}
	failed, stop := cands[failAt], cands[got+1]
	t.Logf("%d of %d candidates moved; the pass stopped at %#x", got, len(cands), stop)
	moved := map[arch.PFN]bool{}
	for i, mv := range moves {
		if want := cands[i+min(1, i/failAt)]; mv.src != want {
			t.Fatalf("move %d is from %#x, want candidate %#x", i, mv.src, want)
		}
		if mv.dst <= mv.src {
			t.Errorf("move %d: %#x -> %#x is not upward", i, mv.src, mv.dst)
		}
		if (mv.dst>>hugeOrder)%2 == 1 {
			t.Errorf("move %d: target %#x split a free 2-MiB block", i, mv.dst)
		}
		if i > 0 && mv.dst >= moves[i-1].dst {
			t.Errorf("targets do not descend: %#x after %#x", mv.dst, moves[i-1].dst)
		}
		moved[mv.src] = true
	}
	if moved[failed] || m.Desc(failed).MapCount() != 1 || m.Desc(failed).Ref.Load() != 1 {
		t.Errorf("failed candidate %#x moved or lost a reference", failed)
	}
	if m.FreeByOrder(0)[hugeOrder] != 2 {
		t.Error("the pass split a free 2-MiB block")
	}
	m.zones[0].buddy.forEachFree(func(pfn arch.PFN, order int) {
		if order < hugeOrder && pfn+1<<order-1 > stop {
			t.Errorf("pass stopped at %#x with free block %#x order %d above it", stop, pfn, order)
		}
	})

	for _, mv := range moves {
		m.Put(0, mv.dst)
	}
	for pfn := range kept {
		if !moved[pfn] {
			m.Desc(pfn).Unmap()
			m.Put(0, pfn)
		}
	}
	if rep := m.Audit(); !rep.Ok() {
		t.Fatal(rep.String())
	}
}

// TestOneMigrationPath pins that mem has one migration path: only
// PhysMem.migrate pins a candidate, fires the mem.migrate-copy site and
// hands a request to the Pressure's Migrate. A second caller of any of
// them is a second path, with its own counting and unwinding.
func TestOneMigrationPath(t *testing.T) {
	const only = "PhysMem.migrate"
	seen := map[string]bool{}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callee := types.ExprString(sel)
				switch {
				case sel.Sel.Name == "Migrate", sel.Sel.Name == "pinCandidate",
					callee == "fault.MemMigrateCopy.Fire":
					seen[sel.Sel.Name] = true
					if name != only {
						t.Errorf("%s: %s calls %s; only %s may", fset.Position(call.Pos()), name, callee, only)
					}
				}
				return true
			})
		}
	}
	for _, callee := range []string{"Migrate", "pinCandidate", "Fire"} {
		if !seen[callee] {
			t.Errorf("no call of %s found; %s should hold one", callee, only)
		}
	}
}
