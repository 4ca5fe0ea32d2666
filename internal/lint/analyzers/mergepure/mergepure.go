// Package mergepure proves the purity side of the monoid contract that
// the *Commutative/*Associative property tests check behaviorally: a
// Merge/Combine used to fold per-partition sketches must be a pure,
// deterministic function of its two operands. The reduce pipeline calls these merges from worker
// goroutines, across tree-reduction levels, and in shard order chosen by
// the scheduler, so a merge that writes package state races, one that
// consults a non-deterministic source (time, rand, pointer formatting)
// breaks replayability, one that copies map iteration order into ordered
// output makes two identical runs disagree, and one that mutates or
// aliases its operand corrupts the sibling subtree that still holds a
// reference — the combineShared aliasing bug class, now proven absent.
//
// Checked methods are the exported Merge/Combine monoid shapes (single
// parameter of the receiver type) plus any method
// tagged //jx:monoid. The directive takes an optional argument:
//
//	//jx:monoid            — non-consuming: the operand must survive intact
//	//jx:monoid consuming  — the merge owns its operand and may gut it
//
// A consuming merge may mutate and adopt from its operand (callers
// promise never to reuse it — the tree reducer's discard-after-combine
// protocol), but package-state writes, non-determinism, and map-order
// leaks are violations for both flavors. An unexported monoid-shaped
// method whose name contains "merge" or "combine" must be tagged one way
// or the other; the diagnostic carries a fix inserting //jx:monoid.
//
// Interprocedural reasoning rides object facts: MutatesParam and
// AdoptsParam summarize what a callee does to each argument position
// (receiver is position 0), Nondet marks functions that transitively
// reach a non-deterministic source, and Immutable marks types tagged
// //jx:immutable — a pointer to an immutable type is safe to adopt, the
// carve-out that lets merges share interned jsontype.Type pointers
// without copying. Function literals are independent flow units and are
// not analyzed.
package mergepure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"jxplain/internal/lint/jxanalysis"
)

// MutatesParam marks a function that writes through argument position i
// (Mask bit i; the receiver is position 0, parameters start at 1).
type MutatesParam struct{ Mask uint64 }

// AFact marks MutatesParam as a fact type.
func (*MutatesParam) AFact() {}

// AdoptsParam marks a function that stores a mutable reference rooted in
// argument position i (same encoding) into state that outlives the call.
type AdoptsParam struct{ Mask uint64 }

// AFact marks AdoptsParam as a fact type.
func (*AdoptsParam) AFact() {}

// Nondet marks a function that (transitively) consults a
// non-deterministic source: time, math/rand, crypto/rand, or pointer
// formatting.
type Nondet struct{}

// AFact marks Nondet as a fact type.
func (*Nondet) AFact() {}

// Immutable marks a type tagged //jx:immutable: its values are never
// mutated after construction, so sharing pointers to them is not
// aliasing in any observable sense.
type Immutable struct{}

// AFact marks Immutable as a fact type.
func (*Immutable) AFact() {}

// Analyzer is the mergepure pass.
var Analyzer = &jxanalysis.Analyzer{
	Name:      "mergepure",
	Doc:       "monoid merges must be pure and deterministic: no package state, no nondeterminism, no map-order leaks, no operand mutation or aliasing",
	Run:       run,
	FactTypes: []jxanalysis.Fact{new(MutatesParam), new(AdoptsParam), new(Nondet), new(Immutable)},
}

const (
	monoidDirective    = "//jx:monoid"
	immutableDirective = "//jx:immutable"
)

var mergeNames = map[string]bool{"Merge": true, "Combine": true}

// behavior is one function's side-effect summary, the in-package
// precursor of the MutatesParam/AdoptsParam/Nondet facts.
type behavior struct {
	mutates uint64
	adopts  uint64
	nondet  bool
}

type checker struct {
	pass      *jxanalysis.Pass
	behaviors map[*types.Func]*behavior
}

// maxRounds bounds the in-package behavior fixpoint; helper chains in
// this module are shallow and the masks only grow.
const maxRounds = 5

func run(pass *jxanalysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "_test") || strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil // external test packages declare no production merges
	}
	c := &checker{pass: pass, behaviors: map[*types.Func]*behavior{}}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if file := pass.Fset.File(f.Pos()); file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					decls = append(decls, d)
				}
			case *ast.GenDecl:
				c.registerImmutableTypes(d)
			}
		}
	}

	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, fd := range decls {
			fn := c.funcObj(fd)
			if fn == nil {
				continue
			}
			b := c.analyzeBehavior(fd)
			if prev := c.behaviors[fn]; prev == nil || *prev != *b {
				c.behaviors[fn] = b
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range decls {
		fn := c.funcObj(fd)
		if fn == nil {
			continue
		}
		b := c.behaviors[fn]
		if b.mutates != 0 {
			c.pass.ExportObjectFact(fn, &MutatesParam{Mask: b.mutates})
		}
		if b.adopts != 0 {
			c.pass.ExportObjectFact(fn, &AdoptsParam{Mask: b.adopts})
		}
		if b.nondet {
			c.pass.ExportObjectFact(fn, &Nondet{})
		}
	}

	for _, fd := range decls {
		c.classify(fd)
	}
	return nil
}

// registerImmutableTypes exports Immutable for every type whose doc (on
// the decl or the spec) carries //jx:immutable.
func (c *checker) registerImmutableTypes(d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		if !hasDirective(d.Doc, immutableDirective) && !hasDirective(ts.Doc, immutableDirective) {
			continue
		}
		if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
			c.pass.ExportObjectFact(tn, &Immutable{})
		}
	}
}

// classify decides whether fd is a checked merge (and which flavor), a
// merge-like method that must be tagged, or out of scope.
func (c *checker) classify(fd *ast.FuncDecl) {
	tagged, consuming := c.monoidTag(fd.Doc)
	fn := c.funcObj(fd)
	if fn == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		if tagged {
			c.pass.Reportf(fd.Pos(), "%s on %s has no effect: the monoid contract applies to methods merging two values of one type", monoidDirective, fd.Name.Name)
		}
		return
	}
	shape := monoidShape(sig)
	switch {
	case tagged:
		if !shape {
			c.pass.Reportf(fd.Pos(), "%s on %s.%s has no effect: a monoid merge takes exactly one parameter of the receiver type", monoidDirective, recvName(sig), fd.Name.Name)
			return
		}
		c.checkMerge(fd, sig, consuming)
	case shape && mergeNames[fd.Name.Name]:
		c.checkMerge(fd, sig, false)
	case shape && !fd.Name.IsExported() && mergeish(fd.Name.Name):
		fix := &jxanalysis.SuggestedFix{
			Message: "tag the method " + monoidDirective,
			Edits: []jxanalysis.TextEdit{
				jxanalysis.InsertBeforeLine(c.pass.Fset, fd.Pos(), monoidDirective+"\n"),
			},
		}
		c.pass.ReportFixf(fd.Pos(), fix, "%s.%s has the monoid merge shape; tag it %s (or %s consuming) so its purity is checked", recvName(sig), fd.Name.Name, monoidDirective, monoidDirective)
	}
}

// checkMerge reports every purity violation in one checked merge body.
func (c *checker) checkMerge(fd *ast.FuncDecl, sig *types.Signature, consuming bool) {
	recv := sig.Recv()
	operand := sig.Params().At(0)
	inspect(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				c.checkWrite(lhs, operand, consuming)
				// := binds locals, and adoption needs a destination that
				// outlives the call, so only plain assignments are candidates.
				if !consuming && n.Tok != token.DEFINE && i < len(n.Rhs) {
					c.checkAdoption(lhs, n.Rhs[i], recv, operand)
				}
			}
		case *ast.IncDecStmt:
			c.checkWrite(n.X, operand, consuming)
		case *ast.CallExpr:
			c.checkCallEffects(n, operand, consuming)
		case *ast.RangeStmt:
			c.checkMapOrder(n)
		}
	})
}

// checkWrite reports lhs if it writes package state (always a violation)
// or through the operand (a violation for non-consuming merges).
func (c *checker) checkWrite(lhs ast.Expr, operand *types.Var, consuming bool) {
	obj := c.rootObj(lhs)
	if obj == nil {
		return
	}
	if isPkgLevelVar(obj) {
		c.pass.Reportf(lhs.Pos(), "monoid merge writes package state %s; merges run concurrently across reduce workers and must touch only their two operands", obj.Name())
		return
	}
	if !consuming && obj == operand && writesThrough(lhs) {
		c.pass.Reportf(lhs.Pos(), "monoid merge mutates its operand through %s; the caller's sibling subtree still holds it (tag %s consuming if ownership transfer is intended)", describe(lhs), monoidDirective)
	}
}

// checkAdoption reports a non-consuming merge that stores a mutable
// reference rooted in its operand into the receiver or package state:
// later mutation through the receiver would alias the operand.
func (c *checker) checkAdoption(lhs, rhs ast.Expr, recv, operand *types.Var) {
	if c.rootObj(rhs) != operand {
		return
	}
	t := c.pass.TypesInfo.TypeOf(rhs)
	if !c.mutableRef(t) {
		return
	}
	dst := c.rootObj(lhs)
	if dst == recv || isPkgLevelVar(dst) {
		c.pass.Reportf(rhs.Pos(), "monoid merge adopts the mutable reference %s from its operand; mutating the merged receiver later would corrupt the operand too (copy it, or tag %s consuming)", describe(rhs), monoidDirective)
	}
}

// checkCallEffects reports nondeterministic callees and calls that hand
// the operand to a position the callee mutates or adopts from.
func (c *checker) checkCallEffects(call *ast.CallExpr, operand *types.Var, consuming bool) {
	if path, name, ok := c.nondetCall(call); ok {
		c.pass.Reportf(call.Pos(), "monoid merge calls non-deterministic %s.%s; two replicas folding the same sketches must produce identical bytes", path, name)
		return
	}
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return
	}
	mut, adopt := c.calleeEffects(fn)
	if mut == 0 && adopt == 0 {
		return
	}
	report := func(pos token.Pos, what string) {
		c.pass.Reportf(pos, "monoid merge passes its operand to %s, which %s it (tag %s consuming if ownership transfer is intended)", fn.Name(), what, monoidDirective)
	}
	if !consuming {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.rootObj(sel.X) == operand {
			if mut&1 != 0 {
				report(call.Pos(), "mutates")
			} else if adopt&1 != 0 {
				report(call.Pos(), "adopts from")
			}
		}
		for i, arg := range call.Args {
			if i > 61 {
				break
			}
			if c.rootObj(arg) != operand {
				continue
			}
			if mut&(1<<uint(i+1)) != 0 {
				report(arg.Pos(), "mutates")
			} else if adopt&(1<<uint(i+1)) != 0 {
				report(arg.Pos(), "adopts from")
			}
		}
	}
	// A mutating method invoked on package state is a package-state write
	// whatever the flavor.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mut&1 != 0 {
		if obj := c.rootObj(sel.X); isPkgLevelVar(obj) {
			c.pass.Reportf(call.Pos(), "monoid merge writes package state %s via %s; merges run concurrently across reduce workers and must touch only their two operands", obj.Name(), fn.Name())
		}
	}
}

// checkMapOrder reports ordered output built inside a range over a map:
// appends and string concatenation observe the randomized iteration
// order. Order-insensitive folds (map writes, numeric sums) pass.
func (c *checker) checkMapOrder(rs *ast.RangeStmt) {
	t := c.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	inspect(rs.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					c.pass.Reportf(n.Pos(), "monoid merge appends in map iteration order; ordered output from an unordered map differs run to run")
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if bt, ok := c.pass.TypesInfo.TypeOf(n.Lhs[0]).Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
					c.pass.Reportf(n.Pos(), "monoid merge concatenates strings in map iteration order; ordered output from an unordered map differs run to run")
				}
			}
		}
	})
}

// analyzeBehavior computes fd's side-effect summary over the tracked
// argument positions (receiver 0, parameters from 1). Only positions
// whose static type can share state with the caller are tracked.
func (c *checker) analyzeBehavior(fd *ast.FuncDecl) *behavior {
	b := &behavior{}
	fn := c.funcObj(fd)
	if fn == nil {
		return b
	}
	sig := fn.Type().(*types.Signature)
	bits := map[types.Object]uint64{}
	if r := sig.Recv(); r != nil && sharedType(r.Type()) {
		bits[r] = 1
	}
	for i := 0; i < sig.Params().Len() && i < 62; i++ {
		if p := sig.Params().At(i); sharedType(p.Type()) {
			bits[p] = 1 << uint(i+1)
		}
	}
	inspect(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if writesThrough(lhs) {
					b.mutates |= bits[c.rootObj(lhs)]
				}
				if n.Tok != token.DEFINE && i < len(n.Rhs) {
					src := bits[c.rootObj(n.Rhs[i])]
					if src != 0 && c.mutableRef(c.pass.TypesInfo.TypeOf(n.Rhs[i])) && c.outlivesCall(n.Lhs[i], bits) {
						b.adopts |= src
					}
				}
			}
		case *ast.IncDecStmt:
			if writesThrough(n.X) {
				b.mutates |= bits[c.rootObj(n.X)]
			}
		case *ast.CallExpr:
			if _, _, ok := c.nondetCall(n); ok {
				b.nondet = true
				return
			}
			fn := calleeFunc(c.pass, n)
			if fn == nil {
				return
			}
			mut, adopt := c.calleeEffects(fn)
			if c.transitiveNondet(fn) {
				b.nondet = true
			}
			if mut == 0 && adopt == 0 {
				return
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				src := bits[c.rootObj(sel.X)]
				if mut&1 != 0 {
					b.mutates |= src
				}
				if adopt&1 != 0 {
					b.adopts |= src
				}
			}
			for i, arg := range n.Args {
				if i > 61 {
					break
				}
				src := bits[c.rootObj(arg)]
				if src == 0 {
					continue
				}
				if mut&(1<<uint(i+1)) != 0 {
					b.mutates |= src
				}
				if adopt&(1<<uint(i+1)) != 0 {
					b.adopts |= src
				}
			}
		}
	})
	return b
}

// outlivesCall reports whether the destination lvalue survives the call:
// a tracked shared argument position or a package-level variable.
func (c *checker) outlivesCall(lhs ast.Expr, bits map[types.Object]uint64) bool {
	obj := c.rootObj(lhs)
	if obj == nil {
		return false
	}
	return bits[obj] != 0 || isPkgLevelVar(obj)
}

// calleeEffects consults this run's in-package behaviors first, then
// imported facts.
func (c *checker) calleeEffects(fn *types.Func) (mutates, adopts uint64) {
	if b, ok := c.behaviors[fn]; ok {
		return b.mutates, b.adopts
	}
	var m MutatesParam
	if c.pass.ImportObjectFact(fn, &m) {
		mutates = m.Mask
	}
	var a AdoptsParam
	if c.pass.ImportObjectFact(fn, &a) {
		adopts = a.Mask
	}
	return mutates, adopts
}

func (c *checker) transitiveNondet(fn *types.Func) bool {
	if b, ok := c.behaviors[fn]; ok {
		return b.nondet
	}
	var nd Nondet
	return c.pass.ImportObjectFact(fn, &nd)
}

// nondetPkgs are the packages whose call results differ run to run.
var nondetPkgs = map[string]bool{
	"time":         true,
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// nondetCall reports a direct non-deterministic call: anything from the
// nondet packages, a transitively Nondet callee, or fmt formatting with a
// literal %p verb (pointer addresses differ per process).
func (c *checker) nondetCall(call *ast.CallExpr) (pkg, name string, ok bool) {
	fn := calleeFunc(c.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if nondetPkgs[fn.Pkg().Path()] {
		return fn.Pkg().Path(), fn.Name(), true
	}
	if fn.Pkg().Path() == "fmt" {
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%p") {
				return "fmt", fn.Name() + " with %p", true
			}
		}
	}
	if c.transitiveNondet(fn) {
		return fn.Pkg().Path(), fn.Name(), true
	}
	return "", "", false
}

// mutableRef reports whether values of t share state when copied:
// pointers (except to //jx:immutable types), slices, maps, and channels.
func (c *checker) mutableRef(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if named := namedOf(u.Elem()); named != nil {
			var im Immutable
			if c.pass.ImportObjectFact(named.Obj(), &im) {
				return false
			}
		}
		return true
	case *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// monoidTag parses the //jx:monoid directive off a doc comment.
func (c *checker) monoidTag(doc *ast.CommentGroup) (tagged, consuming bool) {
	if doc == nil {
		return false, false
	}
	for _, l := range doc.List {
		fields := strings.Fields(l.Text)
		if len(fields) > 0 && fields[0] == monoidDirective {
			return true, len(fields) > 1 && fields[1] == "consuming"
		}
	}
	return false, false
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, l := range doc.List {
		fields := strings.Fields(l.Text)
		if len(fields) > 0 && fields[0] == directive {
			return true
		}
	}
	return false
}

// monoidShape reports the monoid merge shape: a method with exactly one
// parameter of the receiver's own named type.
func monoidShape(sig *types.Signature) bool {
	if sig.Recv() == nil || sig.Params().Len() != 1 {
		return false
	}
	recv := namedOf(sig.Recv().Type())
	param := namedOf(sig.Params().At(0).Type())
	return recv != nil && recv == param
}

func recvName(sig *types.Signature) string {
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return "receiver"
}

func mergeish(name string) bool {
	lower := strings.ToLower(name)
	return strings.Contains(lower, "merge") || strings.Contains(lower, "combine")
}

func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// sharedType reports whether an argument of type t can expose caller
// state to the callee (so writes through it matter to the caller).
func sharedType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// writesThrough reports whether lhs writes through its root variable
// (field, element, or pointee) rather than rebinding it.
func writesThrough(lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

func isPkgLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// rootObj resolves the base object an lvalue or reference expression is
// rooted in: x.y[i].z roots at x, pkg.Var roots at Var. Expressions
// rooted in call results or literals resolve to nil.
func (c *checker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return c.pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := c.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
					return c.pass.TypesInfo.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func describe(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if prefix := describe(e.X); prefix != "" {
			return prefix + "." + e.Sel.Name
		}
	case *ast.IndexExpr:
		if prefix := describe(e.X); prefix != "" {
			return prefix + "[...]"
		}
	case *ast.StarExpr:
		return describe(e.X)
	case *ast.UnaryExpr:
		return describe(e.X)
	}
	return "the expression"
}

func (c *checker) funcObj(fd *ast.FuncDecl) *types.Func {
	fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

// calleeFunc statically resolves a call's target, skipping interface
// methods (dynamic dispatch has no single summary). A generic function or
// a method of a generic type resolves to its declaration, which carries
// the facts.
func calleeFunc(pass *jxanalysis.Pass, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[fun]; ok {
			if s.Kind() != types.MethodVal {
				return nil
			}
			if _, isIface := types.Unalias(s.Recv()).Underlying().(*types.Interface); isIface {
				return nil
			}
			fn, _ = s.Obj().(*types.Func)
		} else {
			fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// inspect walks n in source order, skipping nested function literals
// (independent flow units).
func inspect(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		visit(m)
		return true
	})
}
