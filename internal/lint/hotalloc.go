package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotpathDirective is the annotation that roots a hot call tree.
const hotpathDirective = "//fishlint:hotpath"

// NewHotAlloc builds the hotalloc analyzer: the machine-enforced allocation
// budget for FishStore's per-record paths (ROADMAP arc 3 — the phases bench
// attributes ~80% of ingest to parse + PSF eval, and the graphdb exemplar
// got integer-multiple wins from allocation elimination alone).
//
// Functions annotated with a `//fishlint:hotpath` doc comment are hot-path
// roots: the analyzer closes the set over statically-resolved, module-local
// call edges (Finish aggregates edges across packages) and reports every
// construct that heap-allocates — or plausibly heap-allocates — inside a hot
// function:
//
//   - &T{...} and new(T): escape-prone heap objects
//   - slice/map composite literals and make() of any kind
//   - string ↔ []byte/[]rune conversions (each copies)
//   - interface boxing: a non-pointer-shaped concrete value passed or
//     returned where an interface is expected allocates the interface data
//     word
//   - string concatenation with +
//   - append (backing-array growth unless the caller preallocated)
//   - closures (func literals capture their environment on the heap)
//
// The analyzer is deliberately a budget, not a proof: it has no escape
// analysis, so some reported sites are stack-allocated in practice. The
// committed baseline (fishlint -hotalloc-baseline) absorbs the audited,
// accepted sites; CI then fails only on *new* allocations entering a hot
// tree. Messages carry the enclosing function and the nearest annotated
// root but no line numbers, so baselines survive unrelated edits.
//
// Known limitation: call edges resolve static callees only — calls through
// interface methods, function values, and closures do not extend the hot
// set. Annotate the concrete implementations of hot interface methods
// directly (as the chain-reader and page-cache paths do).
func NewHotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "report heap allocations inside //fishlint:hotpath call trees",
	}

	type site struct {
		pos     token.Position
		message string // position-free, for baseline stability
	}
	type funcFacts struct {
		display string   // funcDisplayName, for messages
		root    bool     // carries the annotation itself
		callees []string // statically resolved module-local callees
		sites   []site
	}
	funcs := make(map[string]*funcFacts) // keyed by display name

	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcDisplayName(obj)
				ff := &funcFacts{display: key, root: hasHotpathDirective(fd.Doc)}
				funcs[key] = ff

				// Call edges to module-local declared functions/methods.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeOf(info, call)
					if fn == nil || fn.Pkg() == nil || !inModulePath(fn.Pkg().Path()) {
						return true
					}
					ff.callees = append(ff.callees, funcDisplayName(fn))
					return true
				})

				// Allocation sites, attributed to the enclosing declaration
				// (func-literal bodies included: the visit callbacks of the
				// scan paths run per record too).
				collectAllocSites(pass, info, fd, func(pos token.Pos, msg string) {
					ff.sites = append(ff.sites, site{
						pos:     pass.Pkg.Fset.Position(pos),
						message: msg,
					})
				})
			}
		}
	}

	a.Finish = func(report func(Finding)) {
		// Close the hot set from the annotated roots over call edges,
		// remembering the nearest root for attribution.
		rootOf := make(map[string]string, len(funcs))
		var queue []string
		names := make([]string, 0, len(funcs))
		for k := range funcs {
			names = append(names, k)
		}
		sort.Strings(names) // deterministic BFS → deterministic attribution
		for _, k := range names {
			if funcs[k].root {
				rootOf[k] = k
				queue = append(queue, k)
			}
		}
		for len(queue) > 0 {
			k := queue[0]
			queue = queue[1:]
			ff, ok := funcs[k]
			if !ok {
				continue
			}
			for _, callee := range ff.callees {
				if _, seen := rootOf[callee]; seen {
					continue
				}
				if _, declared := funcs[callee]; !declared {
					continue // outside the analyzed set (std lib, interface)
				}
				rootOf[callee] = rootOf[k]
				queue = append(queue, callee)
			}
		}
		for _, k := range names {
			root, hot := rootOf[k]
			if !hot {
				continue
			}
			ff := funcs[k]
			via := ""
			if root != k {
				via = " (hot via " + root + ")"
			}
			for _, s := range ff.sites {
				report(Finding{
					Pos:      s.pos,
					Analyzer: a.Name,
					Message:  s.message + " in hot-path function " + ff.display + via,
				})
			}
		}
	}
	return a
}

// hasHotpathDirective reports whether a doc comment carries the
// //fishlint:hotpath annotation (an optional reason may follow it).
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// collectAllocSites walks one function body and emits every (possible) heap
// allocation with a position-free message.
func collectAllocSites(pass *Pass, info *types.Info, fd *ast.FuncDecl, emit func(token.Pos, string)) {
	// The compiler reads string(b) in place when the result is only compared
	// or used to look up a map key: such conversions do not copy. A key
	// that is stored (m[string(b)] = v) is copied. Parents are visited
	// before children, so the operands are marked before they are reached.
	inPlace := make(map[ast.Expr]bool)
	assigned := make(map[ast.Expr]bool)
	// A return boxes as an argument does. Its results are those of the
	// innermost function literal around it, else fd's; literals are met
	// outermost first.
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			sig := info.Defs[fd.Name].Type().(*types.Signature)
			for _, fl := range lits {
				if fl.Pos() <= n.Pos() && n.End() <= fl.End() {
					sig = info.TypeOf(fl).(*types.Signature)
				}
			}
			if sig.Results().Len() != len(n.Results) {
				break // a bare return, or one forwarding a multi-value call
			}
			for i, res := range n.Results {
				if rt := sig.Results().At(i).Type(); boxes(info, res, rt) {
					emit(res.Pos(), "returning "+typeString(info.Types[res].Type)+" as "+interfaceLabel(rt)+" boxes it on the heap")
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				assigned[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			assigned[ast.Unparen(n.X)] = true
		case *ast.FuncLit:
			lits = append(lits, n)
			emit(n.Pos(), "closure allocates its captured environment")
			return true // still scan the body: it runs on the hot path too
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					emit(n.Pos(), "&"+typeLabel(info, cl)+"{...} composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t, ok := info.Types[n]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice:
					emit(n.Pos(), typeLabel(info, n)+"{...} slice literal allocates its backing array")
				case *types.Map:
					emit(n.Pos(), typeLabel(info, n)+"{...} map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD:
				if t, ok := info.Types[n]; ok && isStringType(t.Type) {
					emit(n.Pos(), "string concatenation allocates")
				}
			case token.EQL, token.NEQ:
				inPlace[ast.Unparen(n.X)] = true
				inPlace[ast.Unparen(n.Y)] = true
			}
		case *ast.IndexExpr:
			if t, ok := info.Types[n.X]; ok && !assigned[n] {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					inPlace[ast.Unparen(n.Index)] = true
				}
			}
		case *ast.CallExpr:
			collectCallAllocs(info, n, inPlace[n], emit)
		}
		return true
	})
}

// collectCallAllocs handles the call-shaped allocation sites: builtins,
// conversions, and interface boxing of arguments. inPlace marks a call
// whose result is only compared or used to look up a map key.
func collectCallAllocs(info *types.Info, call *ast.CallExpr, inPlace bool, emit func(token.Pos, string)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				emit(call.Pos(), "make("+exprTypeLabel(info, call)+") allocates")
				return
			case "new":
				emit(call.Pos(), "new allocates")
				return
			case "append":
				emit(call.Pos(), "append may grow its backing array (preallocate with make(cap) or reuse a pooled buffer)")
				return
			}
		}
	}
	// Conversions: string <-> []byte/[]rune copy.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := types.Type(nil)
		if atv, ok := info.Types[call.Args[0]]; ok {
			src = atv.Type
		}
		if src != nil && isStringByteConversion(dst, src) && !(inPlace && isStringType(dst) && isByteSlice(src)) {
			emit(call.Pos(), "conversion "+typeString(dst)+"(...) copies its operand")
		}
		return
	}
	// Interface boxing of arguments.
	fn := calleeOf(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, arg, pt) {
			emit(arg.Pos(), "passing "+typeString(info.Types[arg].Type)+" as "+interfaceLabel(pt)+" boxes it on the heap")
		}
	}
}

// boxes reports whether converting e to t allocates: t is an interface and
// e a non-nil value that does not fit the interface data word. A type
// parameter's underlying type is its constraint interface, but an
// instantiation passes the value unboxed.
func boxes(info *types.Info, e ast.Expr, t types.Type) bool {
	if _, isTypeParam := t.(*types.TypeParam); isTypeParam || t == nil || !types.IsInterface(t.Underlying()) {
		return false
	}
	at, ok := info.Types[e]
	return ok && at.Type != nil && !at.IsNil() && !boxesWithoutAlloc(at.Type)
}

// boxesWithoutAlloc reports whether a value of type t converts to an
// interface without allocating: interfaces stay interfaces, and
// pointer-shaped values (pointers, maps, channels, funcs, unsafe.Pointer)
// fit the interface data word directly.
func boxesWithoutAlloc(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringByteConversion reports whether dst(src) is a string <-> []byte or
// string <-> []rune conversion.
func isStringByteConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isStringType(src) && isByteOrRuneSlice(dst))
}

func isByteOrRuneSlice(t types.Type) bool {
	b, ok := sliceElem(t)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isByteSlice(t types.Type) bool {
	b, ok := sliceElem(t)
	return ok && b.Kind() == types.Byte
}

func sliceElem(t types.Type) (*types.Basic, bool) {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return nil, false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return b, ok
}

// typeLabel renders a composite literal's type compactly for messages.
func typeLabel(info *types.Info, cl *ast.CompositeLit) string {
	if t, ok := info.Types[cl]; ok && t.Type != nil {
		return typeString(t.Type)
	}
	return "composite"
}

func exprTypeLabel(info *types.Info, call *ast.CallExpr) string {
	if t, ok := info.Types[call]; ok && t.Type != nil {
		return typeString(t.Type)
	}
	return "?"
}

// interfaceLabel compresses interface{} / any to "any" for readable
// messages; named interfaces keep their name.
func interfaceLabel(t types.Type) string {
	s := typeString(t)
	if s == "interface{}" || s == "any" {
		return "any"
	}
	return s
}
