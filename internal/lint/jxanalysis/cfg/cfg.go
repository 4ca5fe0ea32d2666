// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems over them. Its one
// consumer is the decodebound analyzer's taint analysis.
//
// The graph decomposes a body into basic blocks of *leaf* nodes:
// statements that transfer no control themselves (assignments, calls,
// sends, declarations) plus the condition expressions of branches. A
// block never contains a node with a nested statement list, so a transfer
// function can fold a block's Nodes front to back without re-entering
// control flow. Edges cover the structured constructs — if/else,
// for/range loops (with break, continue, and labels), expression and type
// switches (with fallthrough), select, goto — plus the two abnormal
// exits: every return statement jumps to the distinguished Exit block and
// every explicit panic(...) statement jumps to the distinguished Panic
// block. Defer statements stay in their block as ordinary leaves.
//
// The package is deliberately syntactic: it needs no *types.Info, so the
// checktest fixture loader and the vet driver can both hand bodies to it,
// and the printer output (String) is stable for golden tests.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: a maximal sequence of leaf nodes with a
// single entry and a single set of successor edges.
type Block struct {
	Index int        // position in Graph.Blocks, stable across builds
	Kind  string     // "entry", "exit", "panic", or the construct that opened it ("if.then", "for.head", ...)
	Nodes []ast.Node // leaf statements and condition expressions, in execution order
	Succs []*Block
}

// addSucc appends s to b's successors, once.
func (b *Block) addSucc(s *Block) {
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block // Blocks[0] is Entry; Exit and Panic are members too
	Entry  *Block
	Exit   *Block // reached by return statements and by falling off the end
	Panic  *Block // reached by explicit panic(...) statements
}

// New builds the control-flow graph of body. A nil body yields a trivial
// entry→exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.g.Panic = b.newBlock("panic")
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.g.Exit)
	b.resolveGotos()
	return b.g
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label         string // "" for the implicit nearest target
	brk, cont     *Block // cont is nil for switch/select
	breakable     bool
	fallthroughTo *Block // next case clause body, for fallthrough
}

type builder struct {
	g       *Graph
	cur     *Block // nil after an unconditional jump: code that follows is unreachable
	targets []target
	labels  map[string]*Block
	gotos   []pendingGoto
	// label to attach to the construct opened by the next loop/switch
	// statement (set by LabeledStmt).
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// block returns the current block, starting a fresh unreachable one if
// control cannot reach this point (code after return/panic/goto); the
// graph keeps such blocks so the printer shows dead statements.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) emit(n ast.Node) { b.block().Nodes = append(b.block().Nodes, n) }

// jump terminates the current block with an edge to to.
func (b *builder) jump(to *Block) {
	if b.cur != nil {
		b.cur.addSucc(to)
		b.cur = nil
	}
}

// startAfter opens a new block of the given kind as the successor of the
// current one.
func (b *builder) startAfter(kind string) *Block {
	blk := b.newBlock(kind)
	b.jump(blk)
	b.cur = blk
	return blk
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall recognizes an explicit panic(...) call expression. The
// check is syntactic; a shadowed panic identifier is treated as the
// builtin, which errs on the conservative side for every analyzer.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.Exit)
	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Panic)
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case nil:
	default:
		// Leaf statements: assign, incdec, send, go, defer, empty, decl.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.emit(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.emit(s.Cond)
	head := b.block()
	b.cur = nil

	then := b.newBlock("if.then")
	head.addSucc(then)
	b.cur = then
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		head.addSucc(els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock("if.join")
	if s.Else == nil {
		head.addSucc(join)
	}
	if thenEnd != nil {
		thenEnd.addSucc(join)
	}
	if elseEnd != nil {
		elseEnd.addSucc(join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.startAfter("for.head")
	if s.Cond != nil {
		b.emit(s.Cond)
	}
	exit := b.newBlock("for.exit")
	if s.Cond != nil {
		head.addSucc(exit)
	}

	body := b.newBlock("for.body")
	head.addSucc(body)
	b.cur = body

	// continue runs the post statement; give it its own block so the back
	// edge is head ← post ← body.
	post := b.newBlock("for.post")
	b.pushTarget(target{label: label, brk: exit, cont: post, breakable: true})
	b.stmtList(s.Body.List)
	b.popTarget()
	b.jump(post)
	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.jump(head)
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	// The head's single leaf is the range operand: analyzers that care
	// about what is being iterated (decodebound's range-over-int sink)
	// read it via the "range.head" block kind; the key/value
	// assignment carries no flow effect any current analysis needs.
	head := b.startAfter("range.head")
	head.Nodes = append(head.Nodes, s.X)
	exit := b.newBlock("range.exit")
	head.addSucc(exit)

	body := b.newBlock("range.body")
	head.addSucc(body)
	b.cur = body
	b.pushTarget(target{label: label, brk: exit, cont: head, breakable: true})
	b.stmtList(s.Body.List)
	b.popTarget()
	b.jump(head)
	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.emit(s.Tag)
	}
	head := b.block()
	b.cur = nil
	join := b.newBlock("switch.join")
	b.caseClauses(s.Body.List, head, join, label, "case")
	b.cur = join
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.emit(s.Assign)
	head := b.block()
	b.cur = nil
	join := b.newBlock("typeswitch.join")
	b.caseClauses(s.Body.List, head, join, label, "typecase")
	b.cur = join
}

// caseClauses wires the clause bodies of a switch: head branches to every
// clause (and to join when there is no default), each clause falls out to
// join, and fallthrough jumps to the next clause's body block.
func (b *builder) caseClauses(clauses []ast.Stmt, head, join *Block, label, kind string) {
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blocks[i] = b.newBlock(kind)
		head.addSucc(blocks[i])
	}
	if !hasDefault {
		head.addSucc(join)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.emit(e)
		}
		var ft *Block
		if i+1 < len(blocks) {
			ft = blocks[i+1]
		}
		b.pushTarget(target{label: label, brk: join, breakable: true, fallthroughTo: ft})
		b.stmtList(cc.Body)
		b.popTarget()
		b.jump(join)
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	b.cur = nil
	join := b.newBlock("select.join")
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock("comm")
		head.addSucc(blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.pushTarget(target{label: label, brk: join, breakable: true})
		b.stmtList(cc.Body)
		b.popTarget()
		b.jump(join)
	}
	b.cur = join
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	switch s.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// The construct consumes the label for break/continue resolution.
		b.pendingLabel = s.Label.Name
		b.labelHere(s.Label.Name)
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	default:
		b.labelHere(s.Label.Name)
		b.stmt(s.Stmt)
	}
}

// labelHere binds a goto label to a fresh block at the current point.
func (b *builder) labelHere(name string) {
	blk := b.startAfter("label." + name)
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	b.labels[name] = blk
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.breakable && (label == "" || t.label == label) {
				b.jump(t.brk)
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.cont != nil && (label == "" || t.label == label) {
				b.jump(t.cont)
				return
			}
		}
	case token.FALLTHROUGH:
		for i := len(b.targets) - 1; i >= 0; i-- {
			if ft := b.targets[i].fallthroughTo; ft != nil {
				b.jump(ft)
				return
			}
		}
	case token.GOTO:
		if blk, ok := b.labels[label]; ok {
			b.jump(blk)
			return
		}
		// Forward goto: patch once the label block exists.
		b.gotos = append(b.gotos, pendingGoto{from: b.block(), label: label})
		b.cur = nil
	}
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if blk, ok := b.labels[g.label]; ok {
			g.from.addSucc(blk)
		} else {
			// Undeclared label: the program does not compile; fall to exit
			// so the graph stays connected for best-effort printing.
			g.from.addSucc(b.g.Exit)
		}
	}
}

func (b *builder) pushTarget(t target) { b.targets = append(b.targets, t) }
func (b *builder) popTarget()          { b.targets = b.targets[:len(b.targets)-1] }

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}
