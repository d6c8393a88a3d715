package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// flowHooks is what one flow analysis adds to the shared per-function
// abstract interpreter: an abstract state S with branch copies and a join,
// and callbacks for the statement shapes the analysis reasons about.
// epochguard (guard protection) and puborder (publication and lock state)
// are the two implementations.
type flowHooks[S any] interface {
	// snapshot returns a copy of the current state; restore replaces the
	// current state with a copy of s; merge joins s into the current state
	// at a control-flow join (may-semantics: a fact set on any incoming
	// path survives, unless the analysis defines a stricter join).
	snapshot() S
	restore(s S)
	merge(s S)
	// call sees every call the body evaluates where it appears.
	call(*ast.CallExpr)
	// blocking sees a channel send or receive and a select without default.
	blocking(pos token.Pos, what string)
	// assign sees an assignment after its right-hand sides were evaluated;
	// an x++ or x-- is an assignment to x with no right-hand side.
	assign(lhs, rhs []ast.Expr)
	// deferred sees a deferred call (not run here: it runs at return) and
	// reports whether a deferred function literal should be analyzed as a
	// function of its own.
	deferred(*ast.CallExpr) bool
	// ret sees each return point: a return statement, or the end of a body
	// that falls off without one (results nil).
	ret(pos token.Pos, results []ast.Expr)
}

// flow interprets one function body statement by statement, keeping
// branch-local copies of the hooks' state and joining them where paths meet.
// Function literals are queued, not entered: their bodies do not run where
// they appear, so they are analyzed afterwards as independent functions.
type flow[S any] struct {
	info  *types.Info
	hooks flowHooks[S]
	lits  []*ast.FuncLit
}

// interpretFuncs runs a fresh analysis, built by newHooks, over every
// function declared in pass's package and over every function literal found
// inside one (isLit reports which kind a body is).
func interpretFuncs[S any](pass *Pass, newHooks func(ftype *ast.FuncType, isLit bool) flowHooks[S]) {
	var lits []*ast.FuncLit
	run := func(ftype *ast.FuncType, body *ast.BlockStmt, isLit bool) {
		f := &flow[S]{info: pass.Pkg.Info, hooks: newHooks(ftype, isLit)}
		if !f.stmt(body) {
			f.hooks.ret(body.End()-1, nil)
		}
		lits = append(lits, f.lits...)
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				run(fd.Type, fd.Body, false)
			}
		}
	}
	for len(lits) > 0 {
		lit := lits[len(lits)-1]
		lits = lits[:len(lits)-1]
		run(lit.Type, lit.Body, true)
	}
}

// stmt interprets one statement, returning true when the statement
// terminates the current path (return, panic, branch).
func (f *flow[S]) stmt(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return f.list(s.List)
	case *ast.ExprStmt:
		f.expr(s.X)
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		return ok && isPanic(f.info, call)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			f.expr(rhs)
		}
		f.hooks.assign(s.Lhs, s.Rhs)
		return false
	case *ast.IncDecStmt:
		f.expr(s.X)
		f.hooks.assign([]ast.Expr{s.X}, nil)
		return false
	case *ast.SendStmt:
		f.expr(s.Chan)
		f.expr(s.Value)
		f.hooks.blocking(s.Arrow, "channel send")
		return false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						f.expr(v)
					}
				}
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			f.expr(r)
		}
		f.hooks.ret(s.Return, s.Results)
		return true
	case *ast.DeferStmt:
		for _, arg := range s.Call.Args {
			f.expr(arg)
		}
		if f.hooks.deferred(s.Call) {
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				f.lits = append(f.lits, lit)
			}
		}
		return false
	case *ast.GoStmt:
		// The spawned body runs concurrently, under its own epoch slot and
		// locks: it is analyzed as a function of its own.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			f.lits = append(f.lits, lit)
		}
		for _, arg := range s.Call.Args {
			f.expr(arg)
		}
		return false
	case *ast.IfStmt:
		f.stmt(s.Init)
		f.expr(s.Cond)
		entry := f.hooks.snapshot()
		thenTerm := f.stmt(s.Body)
		thenState := f.hooks.snapshot()
		f.hooks.restore(entry)
		elseTerm := f.stmt(s.Else)
		switch {
		case thenTerm && elseTerm:
			return true
		case elseTerm:
			f.hooks.restore(thenState)
		case !thenTerm:
			f.hooks.merge(thenState)
		}
		return false
	case *ast.ForStmt:
		f.stmt(s.Init)
		f.expr(s.Cond)
		entry := f.hooks.snapshot()
		f.stmt(s.Body)
		f.stmt(s.Post)
		f.hooks.merge(entry) // the body may run zero times
		return false
	case *ast.RangeStmt:
		f.expr(s.X)
		entry := f.hooks.snapshot()
		f.stmt(s.Body)
		f.hooks.merge(entry)
		return false
	case *ast.SwitchStmt:
		f.stmt(s.Init)
		f.expr(s.Tag)
		return f.cases(s.Body, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		f.stmt(s.Init)
		return f.cases(s.Body, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		if !hasDefaultClause(s.Body) {
			f.hooks.blocking(s.Select, "blocking select")
		}
		// A select always runs one of its cases (it blocks until one can).
		return f.cases(s.Body, true)
	case *ast.LabeledStmt:
		return f.stmt(s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto leave the current path; treating them as
		// terminal keeps joins conservative.
		return true
	default:
		return false
	}
}

func (f *flow[S]) list(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if f.stmt(st) {
			return true
		}
	}
	return false
}

// cases evaluates each case body of a switch or select from the pre-switch
// state and joins the paths that fall out of it. exhaustive notes that some
// case always runs, so the statement terminates when every case does.
func (f *flow[S]) cases(body *ast.BlockStmt, exhaustive bool) bool {
	entry := f.hooks.snapshot()
	var states []S
	allTerm := len(body.List) > 0
	for _, st := range body.List {
		var stmts []ast.Stmt
		switch c := st.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			// c.Comm, the case's channel op, is part of the select itself:
			// blocking is attributed to the select, not the op.
			stmts = c.Body
		}
		f.hooks.restore(entry)
		if !f.list(stmts) {
			states = append(states, f.hooks.snapshot())
			allTerm = false
		}
	}
	f.hooks.restore(entry)
	for _, s := range states {
		f.hooks.merge(s)
	}
	return allTerm && exhaustive
}

// expr walks an expression in evaluation position: calls and channel
// receives go to the hooks, and function literals are queued.
func (f *flow[S]) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			f.lits = append(f.lits, n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				f.hooks.blocking(n.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			f.hooks.call(n)
		}
		return true
	})
}

// keyOf canonicalizes an identifier or a selector chain rooted at one, so
// the same guard or mutex is tracked across statements. Returns "" for
// expressions it cannot canonicalize.
func keyOf(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return objKey(obj)
		}
		if obj := info.Defs[e]; obj != nil {
			return objKey(obj)
		}
	case *ast.SelectorExpr:
		if base := keyOf(info, e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// objKey renders a types.Object as a map key (pointer identity).
func objKey(obj types.Object) string {
	return fmt.Sprintf("o%p", obj)
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok && id.Name == "panic"
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, st := range body.List {
		switch c := st.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				return true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				return true
			}
		}
	}
	return false
}
