package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewAtomicField builds the atomicfield analyzer. It enforces two rules:
//
//  1. A struct field passed by address to sync/atomic anywhere in the module
//     must be accessed through sync/atomic everywhere — a single plain load
//     next to a CAS is a data race the race detector only catches when the
//     schedule cooperates. This is aggregated across packages (Finish),
//     because FishStore's hot-path fields (hash-table buckets, log tails)
//     are read from several packages.
//
//  2. Word slices returned by (*hlog.Log).WordsAt alias the live page frame:
//     concurrent chain splices CAS key-pointer words in place (§4.2), so
//     every element read or write on such a slice must go through
//     sync/atomic on the element address. Plain indexing is reported.
//
// Known limitation (documented in DESIGN.md §9): rule 2 is intra-procedural;
// a frame-aliased slice passed onward (e.g. wrapped in record.View) is not
// tracked into the callee.
func NewAtomicField() *Analyzer {
	a := &Analyzer{
		Name: "atomicfield",
		Doc:  "fields and frame words touched by sync/atomic must be accessed atomically everywhere",
	}
	type access struct {
		pos token.Position
		ref string // rendering for the message
	}
	// Cross-package aggregation state, read by Finish.
	atomicFields := make(map[types.Object]bool)
	plainAccesses := make(map[types.Object][]access)

	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		// sanctioned marks &expr operands that flow into sync/atomic calls.
		sanctioned := make(map[ast.Expr]bool)
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					target := ast.Unparen(u.X)
					sanctioned[target] = true
					if sel, ok := target.(*ast.SelectorExpr); ok {
						if f := fieldOf(info, sel); f != nil {
							atomicFields[f] = true
						}
					}
				}
				return true
			})
		}

		for _, file := range pass.Pkg.Files {
			// Rule 1: record plain field accesses for cross-package
			// aggregation in Finish.
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				f := fieldOf(info, sel)
				if f == nil || sanctioned[ast.Unparen(ast.Expr(sel))] {
					return true
				}
				plainAccesses[f] = append(plainAccesses[f], access{
					pos: pass.Pkg.Fset.Position(sel.Pos()),
					ref: exprString(sel),
				})
				return true
			})

			// Rule 2: frame-aliasing slices from WordsAt.
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFrameAliases(pass, fd.Body, sanctioned)
			}
		}
	}

	a.Finish = func(report func(Finding)) {
		for f, accs := range plainAccesses {
			if !atomicFields[f] {
				continue
			}
			for _, acc := range accs {
				report(Finding{
					Pos:      acc.pos,
					Analyzer: a.Name,
					Message: "field " + f.Name() + " is accessed with sync/atomic elsewhere in the module; this plain access of " +
						acc.ref + " races with those atomic writers (use atomic.Load/Store on &" + acc.ref + ")",
				})
			}
		}
	}
	return a
}

// fieldOf resolves a selector to the struct field it denotes, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// checkFrameAliases flags plain element access on slices returned by
// (*hlog.Log).WordsAt within one function body. An IndexExpr is allowed only
// as the operand of & (the address then goes to sync/atomic, which the
// sanctioned set verifies when the atomic call is local).
func checkFrameAliases(pass *Pass, body *ast.BlockStmt, sanctioned map[ast.Expr]bool) {
	info := pass.Pkg.Info
	wordsAt := "(*" + ModulePath + "/internal/hlog.Log).WordsAt"
	aliases := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || callDisplayName(info, call) != wordsAt {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				aliases[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				aliases[obj] = true
			}
		}
		return true
	})
	if len(aliases) == 0 {
		return
	}
	// addressed collects IndexExprs under a unary &.
	addressed := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			addressed[ast.Unparen(u.X)] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(ix.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !aliases[obj] {
			return true
		}
		if addressed[ast.Expr(ix)] {
			return true
		}
		pass.Reportf(ix.Pos(), "plain access of %s[...]: %s aliases the live page frame returned by WordsAt and may be CASed concurrently by chain splices; use atomic.LoadUint64/StoreUint64 on &%s[i]", id.Name, id.Name, id.Name)
		return true
	})
}
