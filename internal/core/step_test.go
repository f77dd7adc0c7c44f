package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cortenmm/internal/arch"
	"cortenmm/internal/mem"
	"cortenmm/internal/mm"
	"cortenmm/internal/pt"
)

// TestCursorMethodsAreTotal: every exported RCursor method that takes an
// address answers one outside the transaction — just below it, just
// above it (same leaf table, a neighbour's page), and beyond the
// covering page's span — with ErrBadRange (TakePage: ok == false),
// never a panic, and leaves the tree as it was.
func TestCursorMethodsAreTotal(t *testing.T) {
	var frame arch.PFN
	nop := func(Run) error { return nil }
	calls := map[string]func(c *RCursor, va arch.Vaddr) error{
		"Query":        func(c *RCursor, va arch.Vaddr) error { _, err := c.Query(va); return err },
		"AnyAllocated": func(c *RCursor, va arch.Vaddr) error { _, err := c.AnyAllocated(va, va+arch.PageSize); return err },
		"Map":          func(c *RCursor, va arch.Vaddr) error { return c.Map(va, frame, 1, arch.PermRW) },
		"MapKeyed":     func(c *RCursor, va arch.Vaddr) error { return c.MapKeyed(va, frame, 1, arch.PermRW, 3) },
		"Mark": func(c *RCursor, va arch.Vaddr) error {
			return c.Mark(va, va+arch.PageSize, pt.Status{Kind: pt.StatusPrivateAnon, Perm: arch.PermRW})
		},
		"Unmap":         func(c *RCursor, va arch.Vaddr) error { return c.Unmap(va, va+arch.PageSize) },
		"Protect":       func(c *RCursor, va arch.Vaddr) error { return c.Protect(va, va+arch.PageSize, arch.PermRead) },
		"SetProtKey":    func(c *RCursor, va arch.Vaddr) error { return c.SetProtKey(va, va+arch.PageSize, 3) },
		"Iterate":       func(c *RCursor, va arch.Vaddr) error { return c.Iterate(va, va+arch.PageSize, nop) },
		"IterateMapped": func(c *RCursor, va arch.Vaddr) error { return c.IterateMapped(va, va+arch.PageSize, nop) },
		"PopulateAnon":  func(c *RCursor, va arch.Vaddr) error { return c.PopulateAnon(va, va+arch.PageSize) },
		"ClearAccessed": func(c *RCursor, va arch.Vaddr) error { return c.ClearAccessed(va, va+arch.PageSize) },
		"PlacePage":     func(c *RCursor, va arch.Vaddr) error { return c.PlacePage(va, frame, arch.PermRW, 0, 0) },
		"TakePage": func(c *RCursor, va arch.Vaddr) error {
			if _, _, _, _, ok := c.TakePage(va); ok {
				return nil
			}
			return mm.ErrBadRange
		},
	}
	addressless := map[string]bool{"Close": true, "Range": true}
	ct := reflect.TypeOf(&RCursor{})
	for i := 0; i < ct.NumMethod(); i++ {
		if name := ct.Method(i).Name; calls[name] == nil && !addressless[name] {
			t.Errorf("exported method RCursor.%s has no row in this table", name)
		}
	}
	names := make([]string, 0, len(calls))
	for name := range calls {
		names = append(names, name)
	}
	sort.Strings(names)

	const va = arch.Vaddr(1<<32 + 16*arch.PageSize)
	outside := []struct {
		name string
		va   arch.Vaddr
	}{
		{"below", va - arch.PageSize},
		{"above", va + arch.PageSize},
		{"beyond the covering page", va + 1<<30},
	}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			a, m := newSpace(t, p)
			// Three one-page mappings side by side in one leaf table; the
			// transaction covers only the middle one.
			pages := []arch.Vaddr{va - arch.PageSize, va, va + arch.PageSize}
			for i, page := range pages {
				if err := a.MmapFixed(0, page, arch.PageSize, arch.PermRW, mm.FlagPopulate); err != nil {
					t.Fatal(err)
				}
				if err := a.Store(0, page, byte(0x40+i)); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if frame, err = m.Phys.AllocFrame(0, mem.KindAnon); err != nil {
				t.Fatal(err)
			}
			c, err := a.Lock(0, va, va+arch.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				for _, out := range outside {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s(%s) panicked: %v", name, out.name, r)
							}
						}()
						if err := calls[name](c, out.va); !errors.Is(err, mm.ErrBadRange) {
							t.Errorf("%s(%s) = %v, want ErrBadRange", name, out.name, err)
						}
					}()
				}
			}
			// Inside the range, a level no PT page has is refused too.
			for _, level := range []int{0, -1, arch.Levels + 1} {
				if err := c.Map(va, frame, level, arch.PermRW); !errors.Is(err, mm.ErrBadRange) {
					t.Errorf("Map at level %d = %v, want ErrBadRange", level, err)
				}
			}
			c.Close()
			m.Phys.Put(0, frame)
			for i, page := range pages {
				if b, err := a.Load(0, page); err != nil || b != byte(0x40+i) {
					t.Errorf("page %d after the refused calls = %#x, %v", i, b, err)
				}
			}
			checkQuiet(t, a)
			a.Destroy(0)
			checkClean(t, m)
		})
	}
}

// TestOneCursorStep pins the shape of the single-address half of the
// cursor: the covering page's base is read only by the lock protocols
// that set it and by the two ways into the tree (walk → walkRange, and
// entry); PTEs are loaded only there and in ensureChild; the
// single-address operations hold no loop of their own; and PlacePage
// installs through the same function as Map.
func TestOneCursorStep(t *testing.T) {
	mayLoad := map[string]bool{
		"lockRW": true, "lockAdv": true, "lockCover": true, "dfsLock": true,
		"walkRange": true, "entry": true, "ensureChild": true,
	}
	loopFree := map[string]bool{
		"TakePage": false, "PlacePage": false, "demoteHuge": false,
	}
	readsBase := map[string]bool{}
	installs := map[string]bool{}
	eachFunc(t, func(fset *token.FileSet, path string, fn *ast.FuncDecl) {
		name := fn.Name.Name
		if _, ok := loopFree[name]; ok {
			loopFree[name] = true
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if _, ok := loopFree[name]; ok {
					t.Errorf("%s: %s loops; single-address operations descend through entry or a walkOps visitor", fset.Position(n.Pos()), name)
				}
			case *ast.SelectorExpr:
				switch n.Sel.Name {
				case "rootBase":
					if path != "lock.go" {
						readsBase[name] = true
					}
				case "LoadPTE":
					if !mayLoad[name] {
						t.Errorf("%s: %s loads a PTE; reach the tree through entry or walkRange", fset.Position(n.Pos()), name)
					}
				case "install":
					installs[name] = true
				}
			}
			return true
		})
	})
	if want := map[string]bool{"walk": true, "entry": true}; !reflect.DeepEqual(readsBase, want) {
		t.Errorf("rootBase is read outside lock.go by %v, want exactly walk and entry", readsBase)
	}
	if want := map[string]bool{"MapKeyed": true, "PlacePage": true}; !reflect.DeepEqual(installs, want) {
		t.Errorf("install is called by %v, want exactly MapKeyed and PlacePage", installs)
	}
	for name, seen := range loopFree {
		if !seen {
			t.Errorf("func %s not found; update this test with its new name", name)
		}
	}
}

// TestOneBreak pins that break-before-make is one step used three ways:
// the only grace period internal/core waits for is barrier's, and only
// the break helper waits for it; the only payload copy is move.run's, and
// the only swap write is evict's, both after a break. A second copy or
// write is a second, unbroken way to read pages other cores may write.
func TestOneBreak(t *testing.T) {
	want := map[string]string{
		"Synchronize": "barrier", "barrier": "RCursor.breakWrites",
		"copy": "move.run", "Write": "AddrSpace.evict",
	}
	seen := map[string]token.Pos{}
	eachFunc(t, func(fset *token.FileSet, _ string, fn *ast.FuncDecl) {
		name := fn.Name.Name
		if fn.Recv != nil {
			name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee string
			switch f := call.Fun.(type) {
			case *ast.Ident:
				if f.Name != "copy" || readsPayload(call) {
					callee = f.Name
				}
			case *ast.SelectorExpr:
				callee = f.Sel.Name
			}
			if callee == "breakWrites" {
				seen[name+".breakWrites"] = call.Pos()
			}
			if only, ok := want[callee]; ok {
				seen[callee] = call.Pos()
				if name != only {
					t.Errorf("%s: %s calls %s; only %s may", fset.Position(call.Pos()), name, callee, only)
				} else if callee == "copy" || callee == "Write" {
					if brk, ok := seen[name+".breakWrites"]; !ok || brk > call.Pos() {
						t.Errorf("%s: %s calls %s before breakWrites", fset.Position(call.Pos()), name, callee)
					}
				}
			}
			return true
		})
	})
	for callee, only := range want {
		if _, ok := seen[callee]; !ok {
			t.Errorf("no call of %s found; %s should hold one", callee, only)
		}
	}
}

// TestOneOpBody pins one route from a range op to its body: only apply
// calls the op bodies, and no exported entry of the syscall, batch and
// reclaim files opens a transaction or a kernel-time bracket itself — the
// syscalls reach both through run and exec. Submit (coalesced cursors)
// and the eviction pair (one evict body of their own) are the exceptions.
func TestOneOpBody(t *testing.T) {
	bodies := map[string]bool{"mmapBody": false, "madviseBody": false, "msyncBody": false}
	own := map[string]bool{"Batch.Submit": true, "AddrSpace.SwapOut": true, "AddrSpace.ReclaimRange": true}
	eachFunc(t, func(fset *token.FileSet, path string, fn *ast.FuncDecl) {
		name := fn.Name.Name
		if fn.Recv != nil {
			name = strings.TrimPrefix(types.ExprString(fn.Recv.List[0].Type), "*") + "." + name
		}
		entry := fn.Name.IsExported() && !own[name] &&
			(path == "syscalls.go" || path == "batch.go" || path == "reclaim.go")
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee := sel.Sel.Name
			if _, ok := bodies[callee]; ok {
				bodies[callee] = true
				if name != "AddrSpace.apply" {
					t.Errorf("%s: %s calls %s; only AddrSpace.apply may", fset.Position(call.Pos()), name, callee)
				}
			}
			if entry && (callee == "Lock" || callee == "KernelEnter") {
				t.Errorf("%s: entry %s calls %s itself; it must go through run", fset.Position(call.Pos()), name, callee)
			}
			return true
		})
	})
	for callee, seen := range bodies {
		if !seen {
			t.Errorf("no call of %s found; AddrSpace.apply should hold one", callee)
		}
	}
}

// readsPayload reports whether a call's arguments reach a frame payload.
func readsPayload(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Data" || sel.Sel.Name == "DataPage") {
				found = true
			}
			return !found
		})
	}
	return found
}

// eachFunc parses the package's non-test files and hands fn every
// function declaration.
func eachFunc(t *testing.T, fn func(fset *token.FileSet, path string, decl *ast.FuncDecl)) {
	t.Helper()
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
			if d, ok := decl.(*ast.FuncDecl); ok {
				fn(fset, path, d)
			}
		}
	}
}
