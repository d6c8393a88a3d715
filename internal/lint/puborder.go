package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// NewPubOrder builds the puborder analyzer: the happens-before companion to
// atomicfield. atomicfield catches a *single location* accessed both
// atomically and plainly; puborder reasons about the *objects around* an
// atomic publication — the exact shape of FishStore's latch-free structures
// (pagecache fills, chain splices, §4.2), where a payload
// is built with plain writes, published with one atomic store/CAS, and from
// that instant shared with readers that acquire it through the matching
// atomic load.
//
// Three rules:
//
//  1. write-after-publish: once a locally built object has been handed to
//     atomic.Store*/Swap*/CompareAndSwap* (or an atomic.Pointer/Value
//     method), any later plain field write through that object races with
//     every reader that already acquired it. Initialization must complete
//     before publication — the store is the release fence.
//
//  2. write-after-load: an object obtained *from* an atomic load is, by
//     construction, shared with concurrent readers (and the publisher).
//     Plain field writes through it race; mutate a private copy and
//     re-publish (copy-on-write), or take the structure's lock.
//
//  3. mutex-held blocking calls: mirroring epochguard's no-blocking rule,
//     device I/O, sleeps, waits, and channel operations must not run while a
//     sync.Mutex/RWMutex is held — every other locker (including flush and
//     checkpoint paths) stalls behind the holder for the full device
//     latency. Locks released by defer are treated as held to the end of
//     the function.
//
// The analysis runs on the flow interpreter it shares with epochguard, with
// may-semantics at joins: a publish or Lock on one branch is assumed to have
// happened after the join. Function literals are analyzed as independent
// functions, so captured state is not tracked into them.
func NewPubOrder() *Analyzer {
	a := &Analyzer{
		Name: "puborder",
		Doc:  "atomic publication ordering: no plain writes to published objects, no blocking calls under mutexes",
	}
	a.Run = func(pass *Pass) {
		if pass.Pkg.PkgPath == epochPkg {
			return
		}
		interpretFuncs(pass, func(*ast.FuncType, bool) flowHooks[pubState] {
			return &pubEnv{
				pass: pass,
				info: pass.Pkg.Info,
				pubState: pubState{
					published: make(map[types.Object]string),
					loaded:    make(map[types.Object]string),
					held:      make(map[string]string),
				},
			}
		})
	}
	return a
}

// pubState is puborder's flow state. Each fact survives a join if it holds
// on any incoming path.
type pubState struct {
	// published maps objects (locals whose pointee was handed to an atomic
	// store) to the display name of the publishing call, for messages.
	published map[types.Object]string
	// loaded maps objects assigned from an atomic load to the loading call.
	loaded map[types.Object]string
	// held maps canonical mutex expressions (keyOf) to their rendering.
	held map[string]string
}

// pubEnv tracks publication and lock state through one function body.
type pubEnv struct {
	pass *Pass
	info *types.Info
	pubState
}

func (s pubState) clone() pubState {
	return pubState{maps.Clone(s.published), maps.Clone(s.loaded), maps.Clone(s.held)}
}

func (env *pubEnv) snapshot() pubState { return env.pubState.clone() }
func (env *pubEnv) restore(s pubState) { env.pubState = s.clone() }

func (env *pubEnv) merge(s pubState) {
	joinFacts(env.published, s.published)
	joinFacts(env.loaded, s.loaded)
	joinFacts(env.held, s.held)
}

// joinFacts adds to dst every fact of src it lacks.
func joinFacts[K comparable](dst, src map[K]string) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// assign reports field writes through published/loaded objects (rules 1
// and 2), then tracks loads and drops reassigned locals.
func (env *pubEnv) assign(lhs, rhs []ast.Expr) {
	for _, l := range lhs {
		env.checkFieldWrite(l)
	}
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := env.info.Defs[id]
		if obj == nil {
			obj = env.info.Uses[id]
		}
		if obj == nil {
			continue
		}
		// A reassignment gives the local a fresh, private value.
		delete(env.published, obj)
		delete(env.loaded, obj)
		if name, ok := atomicLoadCall(env.info, rhs[i]); ok {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				env.loaded[obj] = name
			}
		}
	}
}

// deferred: defer mu.Unlock() does NOT release for ordering purposes (the
// body after the defer still runs with the lock held), and a deferred
// closure is analyzed as a function of its own.
func (env *pubEnv) deferred(*ast.CallExpr) bool { return true }

func (env *pubEnv) ret(token.Pos, []ast.Expr) {}

// checkFieldWrite reports rule-1/2 violations for an assignment target.
func (env *pubEnv) checkFieldWrite(lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		// Element writes through a published slice/map local (p[i] = x) are
		// the same bug shape.
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return
		}
		env.checkWriteBase(ix.X, "element")
		return
	}
	if fieldOf(env.info, sel) == nil {
		return
	}
	env.checkWriteBase(sel.X, "field "+sel.Sel.Name)
	// Nested selector chains: x.a.b = v writes through x.a; walk down.
	env.checkFieldWrite(sel.X)
}

func (env *pubEnv) checkWriteBase(base ast.Expr, what string) {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return
	}
	obj := env.info.Uses[id]
	if obj == nil {
		return
	}
	if pub, ok := env.published[obj]; ok {
		env.pass.Reportf(id.Pos(), "plain write to %s of %s after it was published via %s: readers that already acquired the pointer can observe the pre-write value (finish initializing before the atomic store — it is the release fence)", what, id.Name, pub)
		return
	}
	if load, ok := env.loaded[obj]; ok {
		env.pass.Reportf(id.Pos(), "plain write to %s of %s, which was acquired from %s: the object is shared with concurrent readers and the publisher; build a private copy and re-publish it (copy-on-write), or protect the structure with its lock", what, id.Name, load)
	}
}

// call tracks lock state and publishes and reports blocking calls made
// under a held mutex.
func (env *pubEnv) call(call *ast.CallExpr) {
	name := callDisplayName(env.info, call)
	if name == "" {
		return
	}
	// Lock tracking.
	switch name {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := keyOf(env.info, sel.X); key != "" {
				env.held[key] = exprString(sel.X)
			}
		}
		return
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if key := keyOf(env.info, sel.X); key != "" {
				delete(env.held, key)
			}
		}
		return
	}
	// Blocking calls under a held mutex (rule 3). (*sync.Cond).Wait is
	// exempt here — it atomically releases the cond's mutex while waiting,
	// so "every other locker stalls" does not apply; epochguard still
	// reports it under an epoch guard, which Wait does not release.
	if why, ok := blockingCalls[name]; ok && name != "(*sync.Cond).Wait" {
		for _, m := range env.held {
			env.pass.Reportf(call.Pos(), "call to %s while mutex %s is held: it %s, and every other locker (including flush and checkpoint paths) stalls behind it for the full latency (move the call outside the critical section)", name, m, why)
			break
		}
	}
	// Publish tracking (rules 1/2): which argument is the published value?
	if val := publishedValue(env.info, call, name); val != nil {
		if obj := pointerOperand(env.info, val); obj != nil {
			env.published[obj] = name
		}
	}
}

// atomicLoadCall reports whether rhs is an atomic load — sync/atomic
// LoadPointer/Load* or a .Load() method on an atomic.Pointer/Value — looking
// through pointer-type conversions like (*T)(atomic.LoadPointer(...)).
func atomicLoadCall(info *types.Info, rhs ast.Expr) (string, bool) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	// Unwrap a conversion: (*entry)(unsafe-loaded pointer).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return atomicLoadCall(info, call.Args[0])
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if fn.Name() == "Load" || strings.HasPrefix(fn.Name(), "Load") {
		return callDisplayName(info, call), true
	}
	return "", false
}

// publishedValue returns the expression a publishing atomic call stores, or
// nil when the call publishes nothing (loads, adds) or the callee is not
// sync/atomic.
func publishedValue(info *types.Info, call *ast.CallExpr, name string) ast.Expr {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	method := sig.Recv() != nil // atomic.Pointer[T].Store etc.
	switch {
	case strings.HasPrefix(fn.Name(), "Store"), strings.HasPrefix(fn.Name(), "Swap"):
		// Store(addr, val) / Swap(addr, val) — methods drop the addr.
		i := 1
		if method {
			i = 0
		}
		if i < len(call.Args) {
			return call.Args[i]
		}
	case strings.HasPrefix(fn.Name(), "CompareAndSwap"):
		// CompareAndSwap(addr, old, new) — new is what gets published.
		i := 2
		if method {
			i = 1
		}
		if i < len(call.Args) {
			return call.Args[i]
		}
	}
	return nil
}

// pointerOperand resolves the local object a published value denotes: a
// pointer-typed identifier, &ident (the ident then being the published
// storage), or a pointer conversion such as unsafe.Pointer(e). Returns nil
// for composite expressions — publishing `&entry{...}` inline leaves nothing
// mutable behind to misuse.
func pointerOperand(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		if _, ok := obj.Type().Underlying().(*types.Pointer); ok {
			return obj
		}
		return nil
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return nil
		}
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		return nil
	case *ast.CallExpr:
		// Conversions: unsafe.Pointer(p), (*T)(p).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return pointerOperand(info, e.Args[0])
		}
		return nil
	}
	return nil
}

// blocking reports a blocking channel operation under a held mutex.
func (env *pubEnv) blocking(pos token.Pos, what string) {
	for _, m := range env.held {
		env.pass.Reportf(pos, "%s while mutex %s is held: every other locker stalls behind the wait (move the channel operation outside the critical section)", what, m)
		return
	}
}
