package pt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneCopierSurface pins fork to one copier, by go/parser: ForkInto and
// its recursion forkPage fill the unpublished child with plain stores —
// the only atomic PTE store they make is the parent's write-protect,
// t.StorePTE — and no forkCopy, the per-system copy loop ForkInto
// replaced, is declared anywhere in the repository.
func TestOneCopierSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	copier := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		inPT := filepath.ToSlash(filepath.Dir(rel)) == "internal/pt" && !strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch name := fn.Name.Name; {
			case name == "forkCopy":
				t.Errorf("%s: forkCopy is declared; fork copies through pt.Tree.ForkInto", fset.Position(fn.Pos()))
			case inPT && (name == "ForkInto" || name == "forkPage"):
				copier[name] = true
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "SetPTE", "CASPTE", "StorePTE":
						if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "t" || sel.Sel.Name != "StorePTE" {
							t.Errorf("%s: %s calls %s: the child is filled with plain stores, the parent only write-protected with t.StorePTE",
								fset.Position(sel.Pos()), name, sel.Sel.Name)
						}
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !copier["ForkInto"] || !copier["forkPage"] {
		t.Errorf("copier functions found %v, want ForkInto and forkPage in package pt", copier)
	}
}
