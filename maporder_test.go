package edgeauction

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFloatAccumulationInMapRange enforces the map-order float rule:
// no non-test package of the module may accumulate into a float-typed
// variable (`+=`, `-=`, `*=`, `/=`, or `x = x op y`) inside a `range` over
// a map. Go randomizes map iteration order and float arithmetic is not
// associative, so such a sum can differ in its last bits between two
// identical runs — the bug class behind the DualObjective and
// TotalPayment determinism fixes. Two forms are exempt because their
// result cannot depend on the order: accumulators declared inside the
// range statement (they do not carry across iterations), and elements
// indexed by the range key itself (each is written once per key).
// Everything else must range over sorted keys instead.
//
// Unlike TestFacadeCoverage this needs types, not just syntax, to tell
// maps and floats apart: each package is type-checked from source with
// the standard library's source importer.
func TestNoFloatAccumulationInMapRange(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var hits []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // nested module, fixtures, hidden
			}
		}
		var files []*ast.File
		for _, pf := range parseDir(t, fset, dir) {
			files = append(files, pf.file)
		}
		if len(files) == 0 {
			return nil
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		if _, err := (&types.Config{Importer: imp}).Check(dir, fset, files, info); err != nil {
			return fmt.Errorf("type-check %s: %w", dir, err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if rs, ok := n.(*ast.RangeStmt); ok {
					if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
						hits = append(hits, floatAccumulations(fset, info, rs)...)
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
	if len(hits) > 0 {
		t.Fatalf("float accumulation inside a range over a map (range over sorted keys instead):\n  %s",
			strings.Join(hits, "\n  "))
	}
}

// floatAccumulations returns one "file:line: lhs" entry per accumulation
// into a float inside rs's body that is not exempt.
func floatAccumulations(fset *token.FileSet, info *types.Info, rs *ast.RangeStmt) []string {
	var hits []string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if b, ok := info.TypeOf(lhs).Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		case token.ASSIGN:
			be, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
			l := types.ExprString(lhs)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB && be.Op != token.MUL && be.Op != token.QUO) ||
				(types.ExprString(ast.Unparen(be.X)) != l && types.ExprString(ast.Unparen(be.Y)) != l) {
				return true
			}
		default:
			return true
		}
		if declaredWithin(info, lhs, rs) || indexedByKey(info, lhs, rs) {
			return true
		}
		pos := fset.Position(as.Pos())
		hits = append(hits, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(pos.Filename), pos.Line, types.ExprString(lhs)))
		return true
	})
	return hits
}

// declaredWithin reports whether the variable at the root of e (x in x,
// x.f, x[i], *x) is declared inside rs, so it does not carry a sum across
// the map's iterations.
func declaredWithin(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := info.ObjectOf(x)
			return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
		default:
			return false
		}
	}
}

// indexedByKey reports whether e is `x[k]` with k the range key of rs.
func indexedByKey(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	key, isIdent := rs.Key.(*ast.Ident)
	if !ok || !isIdent || key.Name == "_" {
		return false
	}
	id, ok := ast.Unparen(ix.Index).(*ast.Ident)
	return ok && info.ObjectOf(id) != nil && info.ObjectOf(id) == info.ObjectOf(key)
}
