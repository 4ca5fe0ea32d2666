// Package hotpathcall closes the interprocedural hole hotpathalloc leaves:
// hotpathalloc checks each //jx:hotpath function body in isolation, so a
// tagged function could keep its steady state allocation-free on paper
// while calling an untagged helper that allocates on every record — in the
// same package or two dependency hops away.
//
// hotpathcall enforces the call-graph closure of the tag. A //jx:hotpath
// function may only call:
//
//   - functions that are themselves //jx:hotpath (their bodies are under
//     hotpathalloc's discipline, and hotpathcall exports an AllocFree fact
//     for them so the closure crosses package boundaries through the vet
//     unit protocol);
//   - functions tagged //jx:coldpath <reason> — the designated cold
//     helpers of the hot path (error construction, first-occurrence
//     interning, allocation for never-before-seen structure). The reason
//     is mandatory; a ColdPath fact carries the designation to dependent
//     packages;
//   - a small intrinsic allowlist: builtins plus the handful of stdlib
//     calls the hot path relies on (sync.Pool, sync.Mutex, atomic
//     counters, math/bits, binary.LittleEndian, weak.Pointer.Value), all
//     allocation-free.
//
// Indirect calls are resolved as far as in-package information allows:
// calls through a function-typed parameter of the hot function (or of a
// function literal inside it) are the caller's responsibility and allowed;
// calls through any other function value are reported. A method value of
// an unqualified method is reported where it is created, because the call
// site can no longer be checked. Calls through an interface are allowed
// only when every package-level concrete type implementing the interface
// has a qualified method — when no in-package implementation exists the
// concrete set is unresolvable and the call is reported.
package hotpathcall

import (
	"go/ast"
	"go/types"
	"strings"

	"jxplain/internal/lint/jxanalysis"
)

// AllocFree marks a function whose steady state is verified allocation-
// free: it carries the //jx:hotpath tag, so hotpathalloc checks its body
// and hotpathcall checks its callees. Exported so dependent packages can
// call it from their own hot paths.
type AllocFree struct{}

// AFact marks AllocFree as a fact type.
func (*AllocFree) AFact() {}

// ColdPath marks a function explicitly designated as a cold-path helper
// (//jx:coldpath <reason>): callable from hot-path functions even though
// it may allocate, because its call sites are off the steady state by
// construction.
type ColdPath struct{}

// AFact marks ColdPath as a fact type.
func (*ColdPath) AFact() {}

// Analyzer is the hotpathcall pass.
var Analyzer = &jxanalysis.Analyzer{
	Name:      "hotpathcall",
	Doc:       "restrict //jx:hotpath functions to calling tagged, //jx:coldpath, or intrinsic callees (transitively, via AllocFree/ColdPath facts)",
	Run:       run,
	FactTypes: []jxanalysis.Fact{new(AllocFree), new(ColdPath)},
}

const (
	hotTag  = "//jx:hotpath"
	coldTag = "//jx:coldpath"
)

// intrinsics are the stdlib functions a hot-path function may call: the
// synchronization and bit-twiddling primitives of the scanner, interner,
// bitset, and wire-codec layers, none of which allocate (AppendUvarint
// writes into the caller's buffer and amortizes exactly like the append
// builtin it wraps), and the interner's read of a weak entry. weak.Make
// is not one: it allocates the pointer's handle on first use.
var intrinsics = map[string]bool{
	"(*sync.Pool).Get":                         true,
	"(*sync.Pool).Put":                         true,
	"(*sync.Mutex).Lock":                       true,
	"(*sync.Mutex).Unlock":                     true,
	"(*sync.RWMutex).RLock":                    true,
	"(*sync.RWMutex).RUnlock":                  true,
	"(*sync/atomic.Uint64).Add":                true,
	"(*sync/atomic.Uint64).Load":               true,
	"(*sync/atomic.Uint64).Store":              true,
	"(*sync/atomic.Int64).Add":                 true,
	"(*sync/atomic.Int64).Load":                true,
	"math/bits.OnesCount64":                    true,
	"math/bits.TrailingZeros64":                true,
	"math/bits.LeadingZeros64":                 true,
	"math/bits.Len64":                          true,
	"(encoding/binary.littleEndian).PutUint64": true,
	"(encoding/binary.littleEndian).Uint64":    true,
	"encoding/binary.Uvarint":                  true,
	"encoding/binary.AppendUvarint":            true,
	"(weak.Pointer[T]).Value":                  true,
}

func hotTagged(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotTag || strings.HasPrefix(c.Text, hotTag+" ") {
			return true
		}
	}
	return false
}

// coldTagged reports whether fd carries //jx:coldpath, and whether the
// mandatory reason is present.
func coldTagged(fd *ast.FuncDecl) (tagged, hasReason bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		if c.Text == coldTag {
			return true, false
		}
		if rest, ok := strings.CutPrefix(c.Text, coldTag+" "); ok {
			return true, strings.TrimSpace(rest) != ""
		}
	}
	return false, false
}

func run(pass *jxanalysis.Pass) error {
	var hot []*ast.FuncDecl
	// Classification pass: export facts for every tagged declaration so the
	// closure check below (and dependent units, through the serialized
	// store) resolves callees uniformly through ImportObjectFact.
	for _, f := range pass.Files {
		if file := pass.Fset.File(f.Pos()); file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if hotTagged(fd) {
				pass.ExportObjectFact(obj, &AllocFree{})
				if fd.Body != nil {
					hot = append(hot, fd)
				}
			}
			if tagged, hasReason := coldTagged(fd); tagged {
				if !hasReason {
					pass.Reportf(fd.Pos(), `//jx:coldpath directive on %s requires a reason: "//jx:coldpath <reason>"`, fd.Name.Name)
				}
				pass.ExportObjectFact(obj, &ColdPath{})
			}
		}
	}
	for _, fd := range hot {
		checkBody(pass, fd)
	}
	return nil
}

// qualified reports whether the function object may be called from a
// hot-path function: tagged in this unit or a dependency (AllocFree /
// ColdPath fact), or on the intrinsic allowlist.
func qualified(pass *jxanalysis.Pass, fn *types.Func) bool {
	fn = fn.Origin() // an instantiation carries its declaration's tag
	if pass.ImportObjectFact(fn, &AllocFree{}) || pass.ImportObjectFact(fn, &ColdPath{}) {
		return true
	}
	return intrinsics[fn.FullName()]
}

func checkBody(pass *jxanalysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// Function-typed parameters of the hot function and of literals inside
	// it: calling them is the caller's contract, not this function's.
	params := map[types.Object]bool{}
	addParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, id := range field.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	addParams(fd.Type)

	jxanalysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			addParams(n.Type)
		case *ast.CallExpr:
			checkCall(pass, name, n, params)
		case *ast.SelectorExpr:
			checkMethodValue(pass, name, n, stack)
		}
		return true
	})
}

// checkCall validates one call expression inside a hot-path function.
func checkCall(pass *jxanalysis.Pass, hot string, call *ast.CallExpr, params map[types.Object]bool) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: f[T](...) — unwrap to the function expression.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := pass.TypesInfo.Types[idx.X]; ok && isFuncExpr(pass, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return // body is walked as part of the hot function
	case *ast.Ident:
		switch obj := pass.TypesInfo.Uses[fun].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			if !qualified(pass, obj) {
				report(pass, hot, call, obj)
			}
		case *types.Var:
			if !params[obj] {
				pass.Reportf(call.Pos(), "hot-path function %s calls through function value %s; only function-typed parameters may be invoked indirectly", hot, fun.Name)
			}
		case *types.TypeName, nil:
			// conversion to a named type, or unresolved — nothing to check
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if iface, ok := types.Unalias(sel.Recv()).Underlying().(*types.Interface); ok {
					checkInterfaceCall(pass, hot, call, iface, m)
					return
				}
				if !qualified(pass, m) {
					report(pass, hot, call, m)
				}
			case types.FieldVal:
				pass.Reportf(call.Pos(), "hot-path function %s calls through function-valued field %s; move the indirect call off the tagged path", hot, fun.Sel.Name)
			}
			return
		}
		// Qualified identifier: pkg.F or method expression T.M.
		switch obj := pass.TypesInfo.Uses[fun.Sel].(type) {
		case *types.Func:
			if !qualified(pass, obj) {
				report(pass, hot, call, obj)
			}
		case *types.Var:
			pass.Reportf(call.Pos(), "hot-path function %s calls through function value %s; only function-typed parameters may be invoked indirectly", hot, fun.Sel.Name)
		}
	}
}

// checkInterfaceCall resolves an interface method call against the
// package-level concrete types of the current package. The call is
// qualified only when at least one implementation is found and every
// implementation's method is qualified.
func checkInterfaceCall(pass *jxanalysis.Pass, hot string, call *ast.CallExpr, iface *types.Interface, m *types.Func) {
	scope := pass.Pkg.Scope()
	found := false
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		impl, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		found = true
		if !qualified(pass, impl) {
			pass.Reportf(call.Pos(), "hot-path function %s calls %s through an interface; concrete method %s is neither //jx:hotpath nor //jx:coldpath", hot, m.Name(), impl.FullName())
		}
	}
	if !found {
		pass.Reportf(call.Pos(), "hot-path function %s calls %s through an interface with no in-package implementation; the callee set cannot be verified", hot, m.Name())
	}
}

// checkMethodValue reports the creation of a method value (x.M used as a
// value, not called) of an unqualified method: once the method escapes as
// a func value its call sites can no longer be attributed to the hot path.
func checkMethodValue(pass *jxanalysis.Pass, hot string, sel *ast.SelectorExpr, stack []ast.Node) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	// In call position the CallExpr case already handles it.
	if len(stack) >= 2 {
		if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(sel) {
			return
		}
	}
	m := s.Obj().(*types.Func)
	if types.IsInterface(s.Recv()) {
		return // handled (or unresolvable) at the call through the value
	}
	if !qualified(pass, m) {
		pass.Reportf(sel.Pos(), "hot-path function %s takes a method value of %s, which is neither //jx:hotpath nor //jx:coldpath", hot, m.FullName())
	}
}

func report(pass *jxanalysis.Pass, hot string, call *ast.CallExpr, fn *types.Func) {
	pass.Reportf(call.Pos(), "hot-path function %s calls %s, which is neither //jx:hotpath, //jx:coldpath, nor an intrinsic; tag the callee or move the call off the hot path", hot, callee(pass, fn))
}

// callee names fn compactly: bare name in-package, full name across
// packages.
func callee(pass *jxanalysis.Pass, fn *types.Func) string {
	if fn.Pkg() == pass.Pkg {
		return fn.Name()
	}
	return fn.FullName()
}

func isFuncExpr(pass *jxanalysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Signature)
	return ok
}
