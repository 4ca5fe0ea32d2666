// Package detorder guards the byte-equivalence guarantee of the synthesis
// pipeline: golden schemas are byte-identical across runs, shard counts
// and reduce-worker counts only if no Go map iteration order ever leaks
// into output. Inside the synthesis packages the analyzer flags a range over a
// map that appends to a slice declared outside the loop without a
// subsequent sort in the same function — the shape by which map order
// reaches Union child ordering, fan-in slices, and ultimately the encoded
// schema. Order-insensitive consumers can say so with
// //jx:lint-ignore detorder <reason>.
package detorder

import (
	"go/ast"
	"go/types"
	"strings"

	"jxplain/internal/lint/jxanalysis"
)

// Analyzer is the detorder pass.
var Analyzer = &jxanalysis.Analyzer{
	Name: "detorder",
	Doc:  "flag map iteration feeding slices without a deterministic sort in the synthesis packages",
	Run:  run,
}

// pkgSuffixes gates the analyzer to the packages whose output feeds the
// golden byte-equivalence suite.
var pkgSuffixes = []string{
	"internal/core",
	"internal/entity",
	"internal/entropy",
	"internal/merge",
	"internal/schema",
	"internal/jsontype",
}

func gated(pkgPath string) bool {
	p := strings.TrimSuffix(pkgPath, "_test")
	for _, s := range pkgSuffixes {
		if strings.HasSuffix(p, s) {
			return true
		}
	}
	return false
}

func run(pass *jxanalysis.Pass) error {
	if !gated(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if file := pass.Fset.File(f.Pos()); file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkFunc(pass *jxanalysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range appendSinks(pass, rng) {
			if !sortedLater(pass, fd, rng, sink) {
				pass.Reportf(rng.Pos(), "map iteration order flows into slice %q with no deterministic sort before use; schema output must not depend on map order", sink.Name())
				break // one diagnostic per range statement
			}
		}
		return true
	})
}

// appendSinks returns the slice variables declared outside the range loop
// that receive append results inside its body.
func appendSinks(pass *jxanalysis.Pass, rng *ast.RangeStmt) []*types.Var {
	var sinks []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isAppend(pass, call) || i >= len(assign.Lhs) {
				continue
			}
			v := lvalueVar(pass, assign.Lhs[i])
			if v == nil || seen[v] {
				continue
			}
			// Only variables that outlive the loop can leak its order.
			if v.Pos() >= rng.Pos() && v.Pos() < rng.End() {
				continue
			}
			seen[v] = true
			sinks = append(sinks, v)
		}
		return true
	})
	return sinks
}

func isAppend(pass *jxanalysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}

// lvalueVar resolves the variable assigned through expr (x or *x).
func lvalueVar(pass *jxanalysis.Pass, expr ast.Expr) *types.Var {
	switch e := expr.(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.ObjectOf(e).(*types.Var)
		return v
	case *ast.StarExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			v, _ := pass.TypesInfo.ObjectOf(id).(*types.Var)
			return v
		}
	}
	return nil
}

// sortedLater reports whether fd contains a sort/slices call mentioning v
// at or after the range statement.
func sortedLater(pass *jxanalysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pkgName.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentions(pass *jxanalysis.Pass, expr ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == v {
			found = true
			return false
		}
		return !found
	})
	return found
}
