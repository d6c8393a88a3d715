package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// epochPkg is the package implementing the epoch-protection framework. Its
// own internals are exempt (it implements the primitives being checked).
const epochPkg = ModulePath + "/internal/epoch"

// blockingCalls maps callee display names to why they must not run inside
// an epoch-protected region: they block (or spin on other workers), and a
// pinned epoch slot stalls safe-epoch advancement — page-frame recycling and
// PSF registration wait on every protected worker (Appendix C protocol; the
// PR 2 waitForPage deadlock is this class).
var blockingCalls = map[string]string{
	"time.Sleep":                                                  "sleeps",
	"(*sync.WaitGroup).Wait":                                      "blocks on other goroutines",
	"(*sync.Cond).Wait":                                           "blocks on other goroutines",
	"(*" + epochPkg + ".Manager).WaitForSafe":                     "waits for the epoch it is itself pinning",
	"(" + ModulePath + "/internal/storage.Device).ReadAt":         "performs device I/O",
	"(" + ModulePath + "/internal/storage.Device).WriteAt":        "performs device I/O",
	ModulePath + "/internal/storage.Sync":                         "performs device I/O",
	"(*" + ModulePath + "/internal/hlog.Log).ReadWordsFromDevice": "performs device I/O",
	"(*" + ModulePath + "/internal/hlog.Log).ReadBytesFromDevice": "performs device I/O",
	"(*" + ModulePath + "/internal/hlog.Log).FlushTail":           "performs device I/O and waits for background flushes",
	"(*" + ModulePath + ".chainReader).record":                    "performs device I/O",
	"(*" + ModulePath + ".chainReader).fetch":                     "performs device I/O",
}

// guard method display names.
var (
	guardProtect   = "(*" + epochPkg + ".Guard).Protect"
	guardUnprotect = "(*" + epochPkg + ".Guard).Unprotect"
	guardRelease   = "(*" + epochPkg + ".Guard).Release"
	managerAcquire = "(*" + epochPkg + ".Manager).Acquire"
)

// NewEpochGuard builds the epochguard analyzer: every Protect/Acquire must
// be paired with Unprotect/Release on every return path, guard parameters
// must be returned in the protected state they arrived in, and no blocking
// operation (channel ops, Wait, device I/O, sleeps) may run while a tracked
// guard is protected.
func NewEpochGuard() *Analyzer {
	a := &Analyzer{
		Name: "epochguard",
		Doc:  "enforce epoch-protection pairing and forbid blocking calls inside protected regions",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.PkgPath == epochPkg {
			return
		}
		interpretFuncs(pass, func(ftype *ast.FuncType, isLit bool) flowHooks[map[string]guardState] {
			return newGuardEnv(pass, ftype, isLit)
		})
	}
	return a
}

// guardState tracks one guard within one function.
type guardState struct {
	expr      string // rendering of the guard expression, for messages
	protected bool
	deferred  bool // an Unprotect/Release is deferred
	isParam   bool // arrived as a parameter: caller owns pairing
}

// guardEnv is epochguard's flow state: the guards one function tracks.
type guardEnv struct {
	pass   *Pass
	info   *types.Info
	guards map[string]*guardState
	isLit  bool // analyzing a function literal: captured guards follow the parameter contract
}

func newGuardEnv(pass *Pass, ftype *ast.FuncType, isLit bool) *guardEnv {
	env := &guardEnv{
		pass:   pass,
		info:   pass.Pkg.Info,
		guards: make(map[string]*guardState),
		isLit:  isLit,
	}
	// Guard-typed parameters arrive protected: every caller in this codebase
	// passes a live protected guard (hlog.Allocate's contract).
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if name.Name == "_" {
					continue
				}
				if obj := env.info.Defs[name]; obj != nil && isGuardPtr(obj.Type()) {
					env.guards[objKey(obj)] = &guardState{
						expr: name.Name, protected: true, isParam: true,
					}
				}
			}
		}
	}
	return env
}

func isGuardPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	return n.Obj().Name() == "Guard" && n.Obj().Pkg() != nil && pkgPath(n.Obj().Pkg()) == epochPkg
}

func (env *guardEnv) snapshot() map[string]guardState {
	m := make(map[string]guardState, len(env.guards))
	for k, g := range env.guards {
		m[k] = *g
	}
	return m
}

func (env *guardEnv) restore(s map[string]guardState) {
	env.guards = make(map[string]*guardState, len(s))
	for k, g := range s {
		cp := g
		env.guards[k] = &cp
	}
}

// merge joins a branch state into the current one: a guard is protected if
// it is protected on any surviving path (may-leak), and deferred only if
// deferred on all of them.
func (env *guardEnv) merge(s map[string]guardState) {
	for k, g := range s {
		cur, ok := env.guards[k]
		if !ok {
			cp := g
			env.guards[k] = &cp
			continue
		}
		cur.protected = cur.protected || g.protected
		cur.deferred = cur.deferred && g.deferred
	}
}

// ret reports pairing violations at a return point. returned lists the
// return-value expressions (a guard that is itself returned transfers
// ownership and is exempt, e.g. Manager.Acquire-style constructors).
func (env *guardEnv) ret(pos token.Pos, returned []ast.Expr) {
	escaping := make(map[string]bool)
	for _, r := range returned {
		ast.Inspect(r, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if k := keyOf(env.info, e); k != "" {
					escaping[k] = true
				}
			}
			return true
		})
	}
	for k, g := range env.guards {
		if escaping[k] {
			continue
		}
		if g.isParam {
			if !g.protected {
				env.pass.Reportf(pos, "guard %s arrived protected but is unprotected at this return; callers rely on it staying protected (re-Protect before returning)", g.expr)
			}
			continue
		}
		if g.protected && !g.deferred {
			env.pass.Reportf(pos, "guard %s is still protected at this return; add %s.Unprotect()/Release() on this path or defer it (a leaked Protect pins the safe epoch and stalls page recycling)", g.expr, g.expr)
		}
	}
}

// assign tracks `g := m.Acquire()` (guard born protected) and drops guards
// whose variable is reassigned.
func (env *guardEnv) assign(lhs, rhs []ast.Expr) {
	for i, l := range lhs {
		key := keyOf(env.info, l)
		if key == "" {
			continue
		}
		if len(lhs) == len(rhs) {
			if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok &&
				callDisplayName(env.info, call) == managerAcquire {
				env.guards[key] = &guardState{expr: exprString(l), protected: true}
				continue
			}
		}
		delete(env.guards, key)
	}
}

// deferred handles `defer g.Unprotect()`, `defer g.Release()` and deferred
// closures containing such calls. A deferred closure is not analyzed on its
// own: it runs at return, where its Unprotect pairs the enclosing Protect.
func (env *guardEnv) deferred(call *ast.CallExpr) bool {
	name := callDisplayName(env.info, call)
	if name == guardUnprotect || name == guardRelease {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := keyOf(env.info, sel.X); key != "" {
				if g, ok := env.guards[key]; ok {
					g.deferred = true
				} else {
					env.guards[key] = &guardState{expr: exprString(sel.X), deferred: true}
				}
			}
		}
		return false
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			dn := callDisplayName(env.info, c)
			if dn != guardUnprotect && dn != guardRelease {
				return true
			}
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
				if g, ok := env.guards[keyOf(env.info, sel.X)]; ok {
					g.deferred = true
				}
			}
			return true
		})
	}
	return false
}

// call updates guard state on Protect/Unprotect/Release and reports
// blocking calls made while a guard is protected.
func (env *guardEnv) call(call *ast.CallExpr) {
	name := callDisplayName(env.info, call)
	switch name {
	case "":
		return
	case guardProtect, guardUnprotect, guardRelease:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		key := keyOf(env.info, sel.X)
		if key == "" {
			return
		}
		g, ok := env.guards[key]
		if !ok {
			// First sighting. In a function literal the guard is captured
			// from the enclosing scope and arrives protected (the enclosing
			// function pairs it); in a declared function it is a local
			// responsibility.
			g = &guardState{expr: exprString(sel.X), isParam: env.isLit, protected: env.isLit}
			env.guards[key] = g
		}
		switch name {
		case guardProtect:
			g.protected = true
		case guardUnprotect:
			g.protected = false
		case guardRelease:
			g.protected = false
			g.deferred = true // slot returned; nothing left to pair
		}
	default:
		if why, ok := blockingCalls[name]; ok {
			if g := env.protectedGuard(); g != nil {
				env.pass.Reportf(call.Pos(), "call to %s while guard %s is protected: it %s, pinning the safe epoch (drop protection around it: g.Unprotect()/defer-free I/O/g.Protect())", name, g.expr, why)
			}
		}
	}
}

func (env *guardEnv) blocking(pos token.Pos, what string) {
	if g := env.protectedGuard(); g != nil {
		env.pass.Reportf(pos, "%s while guard %s is protected: a blocked worker pins the safe epoch and stalls page recycling and PSF registration (Unprotect/Refresh around the wait)", what, g.expr)
	}
}

// protectedGuard returns some protected guard, or nil when none is.
func (env *guardEnv) protectedGuard() *guardState {
	for _, g := range env.guards {
		if g.protected {
			return g
		}
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "guard"
}
