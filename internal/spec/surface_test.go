package spec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneVerificationSurface pins the verification surface to one table,
// one explorer and one registry of named points, by go/parser over the
// whole repository:
//   - outside the table file (envelope.go), no non-test code builds a
//     model literal — a scenario is written once, as a table row;
//   - the second explorer, the schedule-point hook, the replay gate, the
//     TLB's private delay helper and the second VA allocator are gone;
//   - every fault site and delay point is declared in internal/fault.
func TestOneVerificationSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "cmd", "mmcheck")); err == nil {
		t.Error("cmd/mmcheck exists: the table is checked by go test and recorded by cortenbench -fig spec")
	}
	gone := map[string]bool{
		"CheckRWRefinement": true, "SetSchedPoint": true, "schedHit": true, "NewGate": true,
		"maybeDelay": true, "NewGlobalVA": true, "GlobalVA": true, "VAAlloc": true,
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
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
		files[filepath.ToSlash(rel)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The model types: whatever in this package explores (Next) or
	// checks transitions (CheckStep).
	models := map[string]bool{}
	for rel, f := range files {
		if !strings.HasPrefix(rel, "internal/spec/") || strings.HasSuffix(rel, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && (fn.Name.Name == "Next" || fn.Name.Name == "CheckStep") {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					models[star.X.(*ast.Ident).Name] = true
				}
			}
		}
	}
	if len(models) < 6 {
		t.Fatalf("found only %d model types: %v", len(models), models)
	}

	for rel, f := range files {
		test := strings.HasSuffix(rel, "_test.go")
		inFault := strings.HasPrefix(rel, "internal/fault/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if gone[n.Name.Name] {
					t.Errorf("%s declares %s, which the one surface replaced", rel, n.Name.Name)
				}
			case *ast.TypeSpec:
				if gone[n.Name.Name] || n.Name.Name == "Gate" && strings.HasPrefix(rel, "internal/spec/") {
					t.Errorf("%s declares type %s, which the one surface replaced", rel, n.Name.Name)
				}
			case *ast.CompositeLit:
				if name := typeName(n.Type); models[name] && !test && rel != "internal/spec/envelope.go" {
					t.Errorf("%s: builds a %s literal; scenarios are rows of internal/spec/envelope.go",
						fset.Position(n.Pos()), name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && !inFault {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fault" && (sel.Sel.Name == "New" || sel.Sel.Name == "NewPoint") {
						t.Errorf("%s: declares a fault point outside internal/fault", fset.Position(n.Pos()))
					}
				}
			}
			return true
		})
	}
}

// typeName is the bare type name of a composite literal's type (X or
// pkg.X), or "".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
