package mm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOneFrameHandoff: a dead frame leaves an address space one way, as
// runs handed to the RCU monitor by Machine.DeferPut after the shootdown
// that covers it. In the five systems and the machine they share, a
// closure given to Defer may free frames only beside a tree it destroys
// — a teardown, whose dead ASID needs no shootdown — and those are
// DeferTeardown and nros's Destroy. Nothing names the two frame-list
// frees PutRuns replaced.
func TestOneFrameHandoff(t *testing.T) {
	const root = "../.."
	systems := map[string]bool{
		"internal/core": true, "internal/vma": true, "internal/radixvm": true,
		"internal/nros": true, "internal/cpusim": true,
	}
	teardowns := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+"/"))
		if d.IsDir() {
			if rel == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "PutRun" || id.Name == "PutList") {
				t.Errorf("%s: names %s; frames are freed as runs with PutRuns", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		if strings.HasSuffix(rel, "_test.go") || !systems[filepath.ToSlash(filepath.Dir(rel))] {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if callee(n) != "Defer" {
					return true
				}
				for _, arg := range n.(*ast.CallExpr).Args {
					lit, ok := arg.(*ast.FuncLit)
					if !ok {
						continue
					}
					frees, destroys := false, false
					ast.Inspect(lit, func(n ast.Node) bool {
						switch callee(n) {
						case "Put", "PutRuns":
							frees = true
						case "Destroy":
							destroys = true
						}
						return true
					})
					if frees && !destroys {
						t.Errorf("%s: %s frees frames in a closure given to Defer; hand them to Machine.DeferPut as runs",
							fset.Position(lit.Pos()), fn.Name.Name)
					}
					if frees {
						teardowns[filepath.Base(filepath.Dir(rel))+"."+fn.Name.Name] = true
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
	if got := slices.Sorted(maps.Keys(teardowns)); !slices.Equal(got, []string{"cpusim.DeferTeardown", "nros.Destroy"}) {
		t.Errorf("teardowns that free frames from the monitor: %v, want cpusim.DeferTeardown and nros.Destroy", got)
	}
}

// callee names the method or function n calls, if n is a call.
func callee(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}
