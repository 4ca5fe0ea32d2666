// Package decodebound is a taint analysis for the wire-decode trust
// boundary: a count or length read from serialized input must pass a
// dominating capacity guard before it sizes an allocation or bounds a
// loop. core/wire.go's sketch decoder and jsontype/codec.go's type-table
// decoder consume bytes produced by *other processes* (cmd/jxshard map
// workers, snapshot files); a decoder that trusts an attacker-chosen
// count with `make([]T, n)` turns a 16-byte sketch into a multi-gigabyte
// allocation, and one that trusts a loop bound spins until OOM. The
// FuzzSketchDecode corpus probes this probabilistically; decodebound
// proves it per sink.
//
// The analysis is a forward dataflow over the jxanalysis/cfg graph with
// a per-variable taint lattice:
//
//   - Sources: the first result of binary.Uvarint/Varint, the results of
//     binary.LittleEndian/BigEndian.UintNN, any byte read data[i] from a
//     []byte, and calls to functions carrying a TaintedResult fact (so
//     helpers like readUvarint and the sketchDecoder uvarint/section
//     methods compose across function and package boundaries).
//   - Sinks: make() size/capacity arguments, for-loop upper bounds, and
//     range-over-int operands — plus arguments passed at a parameter
//     position carrying a TaintedParam fact, which makes a helper's
//     internal sink visible at every call site.
//   - Sanitizers: a comparison mentioning the tainted value (the
//     `v > uint64(remaining/minBytes)` decode idiom) clears its taint on
//     the paths downstream of the comparison node, and an assignment
//     from the min/max builtins clears it outright (the clamp idiom the
//     suggested fix inserts). The sanitizer is generous — any
//     comparison counts, equality included — so the analyzer errs toward
//     false negatives, never toward noise on the hot decode path.
//
// Taint is tracked per render string ("n", "d.pos") with a label mask:
// one wire label plus one label per integer parameter. Parameter labels
// reaching a sink become the function's TaintedParam fact; wire labels
// reaching a return become TaintedResult; a function that read wire
// input but let neither escape earns BoundedResult — the machine-checked
// form of "this helper validates before it trusts". Facts ride the .vetx
// protocol, so the interprocedural closure crosses packages exactly as
// hotpathcall's does. Function literals are independent flow units and
// are skipped, and in-package summaries reach a fixpoint over a few
// bounded rounds before diagnostics are emitted.
//
// When the unguarded value is a plain local with a known source buffer,
// the diagnostic carries a suggested fix inserting a clamp above the
// sink — `n = min(n, uint64(len(data)))` — which compiles, genuinely
// bounds the allocation, and (being a min-assignment) sanitizes n, so
// applying the fix resolves the diagnostic and -fix is idempotent.
package decodebound

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"jxplain/internal/lint/jxanalysis"
	"jxplain/internal/lint/jxanalysis/cfg"
)

// TaintedResult marks a function whose result positions (Mask bit i =
// result i) carry wire-derived values to the caller unguarded.
type TaintedResult struct{ Mask uint64 }

// AFact marks TaintedResult as a fact type.
func (*TaintedResult) AFact() {}

// TaintedParam marks a function that uses parameter positions (Mask bit
// i = parameter i) as an allocation size or loop bound without a
// dominating guard: passing a tainted value there is a sink.
type TaintedParam struct{ Mask uint64 }

// AFact marks TaintedParam as a fact type.
func (*TaintedParam) AFact() {}

// BoundedResult marks a function that reads wire input but bounds it
// before anything escapes: no tainted result, no tainted-param sink.
// The d.count(...) guard helpers earn it; it is the positive proof the
// decode conventions were written to provide.
type BoundedResult struct{}

// AFact marks BoundedResult as a fact type.
func (*BoundedResult) AFact() {}

// Analyzer is the decodebound pass.
var Analyzer = &jxanalysis.Analyzer{
	Name:      "decodebound",
	Doc:       "wire-derived counts must pass a dominating capacity guard before sizing an allocation or bounding a loop",
	Run:       run,
	FactTypes: []jxanalysis.Fact{new(TaintedResult), new(TaintedParam), new(BoundedResult)},
}

const wireBit uint64 = 1

// paramBit returns the lattice label of parameter i (0-based);
// parameters beyond 62 share the last label, which only ever
// over-approximates.
func paramBit(i int) uint64 {
	if i > 62 {
		i = 62
	}
	return 1 << (uint(i) + 1)
}

// paramMask projects a lattice mask down to 0-based parameter index bits
// (the encoding TaintedParam uses).
func paramMask(mask uint64) uint64 { return mask >> 1 }

// taintVal is one variable's taint: the label mask and, when the taint
// came straight off a wire buffer, that buffer's render — the handle the
// suggested clamp fix needs for its len(...) bound.
type taintVal struct {
	mask uint64
	buf  string
}

type taint map[string]taintVal

func cloneTaint(t taint) taint {
	c := make(taint, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// joinTaint unions label masks per variable (may-taint); disagreeing
// source buffers collapse to "" so the join is monotone.
func joinTaint(a, b taint) taint {
	j := cloneTaint(a)
	for k, bv := range b {
		av, ok := j[k]
		if !ok {
			j[k] = bv
			continue
		}
		if av.buf != bv.buf {
			av.buf = ""
		}
		av.mask |= bv.mask
		j[k] = av
	}
	return j
}

func equalTaint(a, b taint) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

// summary is one function's interprocedural behavior, accumulated while
// its CFG is walked and compared across fixpoint rounds.
type summary struct {
	taintedParams  uint64 // 0-based parameter index bits reaching a sink
	taintedResults uint64 // result index bits carrying wire taint out
	sawWire        bool   // read a wire source (directly or via a tainted callee)
	wireSink       bool   // let a wire-tainted value reach a sink
}

type checker struct {
	pass      *jxanalysis.Pass
	summaries map[*types.Func]*summary
	cur       *summary // summary of the function being analyzed
}

// maxRounds bounds the in-package fixpoint: each round propagates
// summaries one call level, and the decode helper chains in this module
// are at most a few levels deep. The lattice is monotone, so stopping
// early only loses precision, never soundness of what was found.
const maxRounds = 5

func run(pass *jxanalysis.Pass) error {
	c := &checker{pass: pass, summaries: map[*types.Func]*summary{}}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if file := pass.Fset.File(f.Pos()); file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
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
			sum := c.analyze(fd, false)
			if prev := c.summaries[fn]; prev == nil || *prev != *sum {
				c.summaries[fn] = sum
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
		sum := c.summaries[fn]
		if sum.taintedResults != 0 {
			c.pass.ExportObjectFact(fn, &TaintedResult{Mask: sum.taintedResults})
		}
		if sum.taintedParams != 0 {
			c.pass.ExportObjectFact(fn, &TaintedParam{Mask: sum.taintedParams})
		}
		if sum.sawWire && !sum.wireSink && sum.taintedResults == 0 && sum.taintedParams == 0 {
			c.pass.ExportObjectFact(fn, &BoundedResult{})
		}
	}

	for _, fd := range decls {
		c.analyze(fd, true)
	}
	return nil
}

// analyze solves the taint dataflow over one function. With report set,
// sinks produce diagnostics; either way the function's summary is
// (re)accumulated and returned.
func (c *checker) analyze(fd *ast.FuncDecl, report bool) *summary {
	c.cur = &summary{}
	entry := taint{}
	if fn := c.funcObj(fd); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if p.Name() != "" && p.Name() != "_" && integerish(p.Type()) {
					entry[p.Name()] = taintVal{mask: paramBit(i)}
				}
			}
		}
	}
	g := cfg.New(fd.Body)
	res := cfg.Forward(g, cfg.Problem[taint]{
		Entry: entry,
		Join:  joinTaint,
		Equal: equalTaint,
		Transfer: func(b *cfg.Block, in taint) taint {
			out := cloneTaint(in)
			for _, n := range b.Nodes {
				c.applyNode(b, n, out, false)
			}
			return out
		},
	})
	for _, b := range g.Blocks {
		if !res.Reached[b.Index] {
			continue
		}
		st := cloneTaint(res.In[b.Index])
		for _, n := range b.Nodes {
			c.applyNode(b, n, st, report)
		}
	}
	return c.cur
}

func (c *checker) funcObj(fd *ast.FuncDecl) *types.Func {
	fn, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

// applyNode updates st across one CFG node, reporting sinks when report
// is set and accumulating the current function's summary either way.
// Head blocks carry exactly one node — the loop condition or range
// operand — so sinks there are loop bounds; everywhere else the node is
// walked for calls (make sinks, tainted-param sinks), comparisons
// (sanitizers), and returns, and then the node's assignment effect is
// applied.
func (c *checker) applyNode(b *cfg.Block, n ast.Node, st taint, report bool) {
	switch b.Kind {
	case "range.head":
		if x, ok := n.(ast.Expr); ok && integerish(c.pass.TypesInfo.TypeOf(x)) {
			c.sink(x, token.NoPos, st, report, "range count")
		}
		c.sanitizeMentions(n, st)
		return
	case "for.head":
		cond, _ := n.(ast.Expr)
		if cmp, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok {
			var bound ast.Expr
			switch cmp.Op {
			case token.LSS, token.LEQ:
				bound = cmp.Y
			case token.GTR, token.GEQ:
				bound = cmp.X
			}
			// A bound phrased in terms of len/cap is capacity-derived by
			// construction (`for pos < len(data)`), never a sink.
			if bound != nil && !mentionsLenCap(bound) {
				c.sink(bound, token.NoPos, st, report, "loop bound")
			}
		}
		c.sanitizeMentions(n, st)
		return
	}
	inspect(n, func(m ast.Node) {
		switch m := m.(type) {
		case *ast.CallExpr:
			c.checkCall(m, n.Pos(), st, report)
		case *ast.BinaryExpr:
			if isComparison(m.Op) {
				c.sanitizeMentions(m, st)
			}
		case *ast.ReturnStmt:
			for j, r := range m.Results {
				if j > 62 {
					break
				}
				if c.exprTaint(r, st).mask&wireBit != 0 {
					c.cur.taintedResults |= 1 << uint(j)
				}
			}
		}
	})
	switch s := n.(type) {
	case *ast.AssignStmt:
		c.applyAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.applyValueSpec(vs, st)
				}
			}
		}
	}
}

// checkCall reports make() size arguments and tainted-param positions of
// the (statically resolved) callee as sinks.
func (c *checker) checkCall(call *ast.CallExpr, anchor token.Pos, st taint, report bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if bi.Name() == "make" {
				for _, a := range call.Args[1:] {
					c.sink(a, anchor, st, report, "allocation size")
				}
			}
			return
		}
	}
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return
	}
	tp := c.calleeParamMask(fn)
	if tp == 0 {
		return
	}
	for i, a := range call.Args {
		if i > 62 {
			break
		}
		if tp&(1<<uint(i)) == 0 {
			continue
		}
		tv := c.exprTaint(a, st)
		c.cur.taintedParams |= paramMask(tv.mask)
		if tv.mask&wireBit != 0 {
			c.cur.wireSink = true
		}
		if report && tv.mask&wireBit != 0 {
			c.pass.Reportf(a.Pos(), "unguarded wire-derived value %s passed to %s, which uses parameter %d as an allocation size or loop bound", describe(a), fn.Name(), i)
		}
	}
}

// sink evaluates e at a sink position. Wire taint reports (with a clamp
// fix when anchor is set and the value is a plain local with a known
// source buffer); parameter labels flow into the TaintedParam summary.
func (c *checker) sink(e ast.Expr, anchor token.Pos, st taint, report bool, what string) {
	tv := c.exprTaint(e, st)
	c.cur.taintedParams |= paramMask(tv.mask)
	if tv.mask&wireBit == 0 {
		return
	}
	c.cur.wireSink = true
	if !report {
		return
	}
	msg := fmt.Sprintf("%s %s derives from wire input without a dominating capacity guard", what, describe(e))
	if fix := c.clampFix(e, tv, anchor); fix != nil {
		c.pass.ReportFixf(e.Pos(), fix, "%s", msg)
		return
	}
	c.pass.Reportf(e.Pos(), "%s", msg)
}

// clampFix builds the bound-guard template: insert, directly above the
// sink statement, `v = min(v, T(len(buf)))` — which compiles (the module
// is go 1.22), truly bounds the allocation by the source buffer length,
// and as a min-assignment sanitizes v, so the next run is clean and -fix
// is idempotent. Only emitted for a bare variable whose source buffer is
// known; anything cleverer is left to the human the diagnostic points at.
func (c *checker) clampFix(e ast.Expr, tv taintVal, anchor token.Pos) *jxanalysis.SuggestedFix {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || tv.buf == "" || !anchor.IsValid() {
		return nil
	}
	if _, ok := c.pass.TypesInfo.Uses[id].(*types.Var); !ok {
		return nil
	}
	t := c.pass.TypesInfo.TypeOf(id)
	if t == nil {
		return nil
	}
	var clamp string
	if types.Identical(t, types.Typ[types.Int]) {
		clamp = fmt.Sprintf("%s = min(%s, len(%s))", id.Name, id.Name, tv.buf)
	} else {
		ts := types.TypeString(t, types.RelativeTo(c.pass.Pkg))
		clamp = fmt.Sprintf("%s = min(%s, %s(len(%s)))", id.Name, id.Name, ts, tv.buf)
	}
	return &jxanalysis.SuggestedFix{
		Message: fmt.Sprintf("clamp %s to the source buffer length above the sink", id.Name),
		Edits: []jxanalysis.TextEdit{jxanalysis.InsertBeforeLine(c.pass.Fset, anchor,
			clamp+" // jxlint(decodebound): clamp template; tighten to the true remaining-input capacity\n")},
	}
}

// applyAssign applies an assignment's taint effect.
func (c *checker) applyAssign(s *ast.AssignStmt, st taint) {
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		var tvs []taintVal
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			tvs = c.callResultTaints(call, len(s.Lhs), st)
		}
		for i, lhs := range s.Lhs {
			key := render(lhs)
			if key == "" || key == "_" {
				continue
			}
			var tv taintVal
			if tvs != nil {
				tv = tvs[i]
			}
			setTaint(st, key, tv)
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		key := render(lhs)
		if key == "" || key == "_" {
			continue
		}
		tv := c.exprTaint(s.Rhs[i], st)
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// op-assign reads the old value too: union.
			if old, ok := st[key]; ok {
				if old.buf != tv.buf {
					tv.buf = ""
				}
				tv.mask |= old.mask
			}
		}
		setTaint(st, key, tv)
	}
}

func (c *checker) applyValueSpec(vs *ast.ValueSpec, st taint) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		var tvs []taintVal
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			tvs = c.callResultTaints(call, len(vs.Names), st)
		}
		for i, name := range vs.Names {
			var tv taintVal
			if tvs != nil {
				tv = tvs[i]
			}
			setTaint(st, name.Name, tv)
		}
		return
	}
	for i, name := range vs.Names {
		var tv taintVal
		if i < len(vs.Values) {
			tv = c.exprTaint(vs.Values[i], st)
		}
		setTaint(st, name.Name, tv)
	}
}

func setTaint(st taint, key string, tv taintVal) {
	if tv.mask == 0 {
		delete(st, key)
		return
	}
	st[key] = tv
}

// callResultTaints evaluates a multi-result call on the right of a tuple
// assignment: binary.Uvarint/Varint taint their first result with the
// argument buffer as provenance; otherwise the callee's TaintedResult
// mask (summary in-package, fact across packages) decides per position.
func (c *checker) callResultTaints(call *ast.CallExpr, nresults int, st taint) []taintVal {
	out := make([]taintVal, nresults)
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return out
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" && (fn.Name() == "Uvarint" || fn.Name() == "Varint") {
		c.cur.sawWire = true
		buf := ""
		if len(call.Args) == 1 {
			buf = bufRoot(call.Args[0])
		}
		out[0] = taintVal{mask: wireBit, buf: buf}
		return out
	}
	mask := c.calleeResultMask(fn)
	for j := range out {
		if j <= 62 && mask&(1<<uint(j)) != 0 {
			c.cur.sawWire = true
			out[j] = taintVal{mask: wireBit}
		}
	}
	return out
}

// exprTaint evaluates an expression's taint under st. Calls do not
// propagate argument taint (only source calls and TaintedResult callees
// produce taint); conversions are transparent; len/cap/min/max results
// are trusted by definition.
func (c *checker) exprTaint(e ast.Expr, st taint) taintVal {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return st[e.Name]
	case *ast.SelectorExpr:
		if key := render(e); key != "" {
			return st[key]
		}
		return taintVal{}
	case *ast.BinaryExpr:
		if isComparison(e.Op) || e.Op == token.LAND || e.Op == token.LOR {
			return taintVal{}
		}
		a, b := c.exprTaint(e.X, st), c.exprTaint(e.Y, st)
		switch {
		case a.buf == b.buf:
		case a.buf == "":
			a.buf = b.buf
		case b.buf != "":
			a.buf = ""
		}
		a.mask |= b.mask
		return a
	case *ast.UnaryExpr:
		return c.exprTaint(e.X, st)
	case *ast.IndexExpr:
		if isByteSlice(c.pass.TypesInfo.TypeOf(e.X)) {
			c.cur.sawWire = true
			return taintVal{mask: wireBit, buf: bufRoot(e.X)}
		}
		return taintVal{}
	case *ast.CallExpr:
		return c.callTaint(e, st)
	}
	return taintVal{}
}

func (c *checker) callTaint(call *ast.CallExpr, st taint) taintVal {
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.exprTaint(call.Args[0], st)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return taintVal{} // len/cap are capacity facts; min/max are clamps
		}
	}
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return taintVal{}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" && strings.HasPrefix(fn.Name(), "Uint") {
		c.cur.sawWire = true
		buf := ""
		if len(call.Args) > 0 {
			buf = bufRoot(call.Args[0])
		}
		return taintVal{mask: wireBit, buf: buf}
	}
	if c.calleeResultMask(fn)&1 != 0 {
		c.cur.sawWire = true
		return taintVal{mask: wireBit}
	}
	return taintVal{}
}

// calleeResultMask consults this run's in-package summaries first (the
// fixpoint may not have exported facts yet), then imported facts.
func (c *checker) calleeResultMask(fn *types.Func) uint64 {
	if s, ok := c.summaries[fn]; ok {
		return s.taintedResults
	}
	var f TaintedResult
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Mask
	}
	return 0
}

func (c *checker) calleeParamMask(fn *types.Func) uint64 {
	if s, ok := c.summaries[fn]; ok {
		return s.taintedParams
	}
	var f TaintedParam
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Mask
	}
	return 0
}

// sanitizeMentions clears the taint of every rendered variable mentioned
// under n — the generous comparison sanitizer.
func (c *checker) sanitizeMentions(n ast.Node, st taint) {
	inspect(n, func(m ast.Node) {
		if e, ok := m.(ast.Expr); ok {
			if key := render(e); key != "" {
				delete(st, key)
			}
		}
	})
}

// bufRoot strips index and slice layers off a buffer expression:
// d.data[d.pos:] and data[i] both root at the buffer whose len() the
// clamp fix wants.
func bufRoot(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return render(e)
		}
	}
}

// render flattens an ident or selector path to its source spelling
// ("n", "d.pos") — the key space the taint map is tracked over.
func render(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		prefix := render(e.X)
		if prefix == "" {
			return ""
		}
		return prefix + "." + e.Sel.Name
	}
	return ""
}

func describe(e ast.Expr) string {
	if r := renderDeep(e); r != "" {
		return r
	}
	return "value"
}

// renderDeep is render, additionally seeing through single-argument
// conversions so int(n) describes as n.
func renderDeep(e ast.Expr) string {
	e = ast.Unparen(e)
	if r := render(e); r != "" {
		return r
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		return renderDeep(call.Args[0])
	}
	return ""
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func mentionsLenCap(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				found = true
			}
		}
		return !found
	})
	return found
}

func integerish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
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
