package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker. Run is invoked once per package.
// Finish, if set, runs once after every package has been visited (for
// analyzers that aggregate facts across the whole module, e.g. atomicfield
// and hotalloc).
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(report func(Finding))
}

// AnalyzerTiming is the accumulated analysis time of one analyzer across all
// packages, plus its Finish pass.
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
	Packages int
}

// ignoreDirective is a parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil after a parse error
	malformed string          // non-empty: the problem with the directive
	pos       token.Position
	used      bool // suppressed at least one finding
}

// Result is the outcome of a lint run.
type Result struct {
	// Findings are the surviving (unsuppressed, unbaselined) diagnostics,
	// sorted by position, including any bad //lint:ignore directives.
	Findings []Finding
	// Suppressed counts findings silenced by //lint:ignore directives.
	Suppressed int
	// Baselined counts findings absorbed by a committed baseline file
	// (ApplyBaseline); zero when no baseline is in play.
	Baselined int
	// Timings reports per-analyzer analysis time, sorted by descending
	// duration.
	Timings []AnalyzerTiming
}

// Run applies every analyzer to every package and resolves suppressions.
// Analyzer order and package order never affect the (sorted) result.
//
// A finding is suppressed by a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// placed either on the finding's own line or on the line immediately above
// it. The justification is mandatory, and a directive must name only
// analyzers in the run and must suppress a finding: a bare, unknown or
// unused //lint:ignore is itself reported as a finding of analyzer "lint",
// so every directive in the tree silences something and says why.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var raw []Finding
	report := func(f Finding) { raw = append(raw, f) }
	var res Result
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		start := time.Now()
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
		}
		if a.Finish != nil {
			a.Finish(report)
		}
		res.Timings = append(res.Timings, AnalyzerTiming{Name: a.Name, Duration: time.Since(start), Packages: len(pkgs)})
	}
	sort.Slice(res.Timings, func(i, j int) bool {
		if res.Timings[i].Duration != res.Timings[j].Duration {
			return res.Timings[i].Duration > res.Timings[j].Duration
		}
		return res.Timings[i].Name < res.Timings[j].Name
	})

	ignores := collectIgnores(pkgs)
	for _, f := range raw {
		if d := ignores[f.Pos.Filename][f.Pos.Line]; d != nil && d.analyzers[f.Analyzer] {
			d.used = true
			res.Suppressed++
			continue
		}
		if d := ignores[f.Pos.Filename][f.Pos.Line-1]; d != nil && d.analyzers[f.Analyzer] {
			d.used = true
			res.Suppressed++
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	for _, dirs := range ignores {
		for _, d := range dirs {
			if msg := d.problem(known); msg != "" {
				res.Findings = append(res.Findings, Finding{Pos: d.pos, Analyzer: "lint", Message: msg})
			}
		}
	}
	sortFindings(res.Findings)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// ---- baseline ----

// Baseline is a committed inventory of accepted findings: CI fails only on
// findings not in it. Keys deliberately omit line numbers, so unrelated edits
// that shift code do not invalidate the baseline; entries are counted, so a
// second identical allocation in the same file is still new.
type Baseline struct {
	Version int            `json:"version"`
	Entries map[string]int `json:"entries"`
}

// baselineKey renders a finding as its baseline key. File paths are stored
// relative to dir so the baseline is machine-independent.
func baselineKey(f Finding, dir string) string {
	file := f.Pos.Filename
	if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return f.Analyzer + "\t" + file + "\t" + f.Message
}

// NewBaseline builds a baseline from findings (typically pre-filtered to one
// analyzer).
func NewBaseline(findings []Finding, dir string) *Baseline {
	b := &Baseline{Version: 1, Entries: make(map[string]int)}
	for _, f := range findings {
		b.Entries[baselineKey(f, dir)]++
	}
	return b
}

// ReadBaseline loads a baseline file written by WriteBaseline.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lint: reading baseline: %w", err)
	}
	b := new(Baseline)
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("lint: parsing baseline %s: %w", path, err)
	}
	if b.Entries == nil {
		b.Entries = make(map[string]int)
	}
	return b, nil
}

// WriteBaseline persists b to path, keys sorted for stable diffs.
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ApplyBaseline removes findings covered by b from res (up to each key's
// count), incrementing res.Baselined. Findings beyond a key's count — and
// findings with no key at all — survive: those are the regressions the
// baseline exists to expose.
func ApplyBaseline(res *Result, b *Baseline, dir string) {
	if b == nil {
		return
	}
	budget := make(map[string]int, len(b.Entries))
	for k, n := range b.Entries {
		budget[k] = n
	}
	kept := res.Findings[:0]
	for _, f := range res.Findings {
		k := baselineKey(f, dir)
		if budget[k] > 0 {
			budget[k]--
			res.Baselined++
			continue
		}
		kept = append(kept, f)
	}
	res.Findings = kept
}

// ---- suppression directives ----

// collectIgnores scans every file's comments for //lint:ignore directives,
// keyed by filename and the line the directive sits on.
func collectIgnores(pkgs []*Package) map[string]map[int]*ignoreDirective {
	out := make(map[string]map[int]*ignoreDirective)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					d := parseIgnore(text)
					d.pos = pkg.Fset.Position(c.Pos())
					if out[d.pos.Filename] == nil {
						out[d.pos.Filename] = make(map[int]*ignoreDirective)
					}
					out[d.pos.Filename][d.pos.Line] = d
				}
			}
		}
	}
	return out
}

// problem explains why a directive is itself a finding, or returns "".
func (d *ignoreDirective) problem(known map[string]bool) string {
	if d.malformed != "" {
		return d.malformed
	}
	names := make([]string, 0, len(d.analyzers))
	for n := range d.analyzers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !known[n] {
			return fmt.Sprintf("//lint:ignore names unknown analyzer %q", n)
		}
	}
	if !d.used {
		return "//lint:ignore " + strings.Join(names, ",") + " suppresses no finding; delete it"
	}
	return ""
}

func parseIgnore(rest string) *ignoreDirective {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return &ignoreDirective{malformed: "malformed //lint:ignore: missing analyzer name and justification"}
	}
	if len(fields) < 2 {
		return &ignoreDirective{malformed: fmt.Sprintf("malformed //lint:ignore %s: missing justification", fields[0])}
	}
	names := make(map[string]bool)
	for _, n := range strings.Split(fields[0], ",") {
		if n == "" {
			return &ignoreDirective{malformed: "malformed //lint:ignore: empty analyzer name"}
		}
		names[n] = true
	}
	return &ignoreDirective{analyzers: names}
}

// Analyzers returns a fresh instance of every fishlint analyzer. Instances
// are stateful (atomicfield and hotalloc aggregate across packages), so
// each Run gets its own set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewEpochGuard(),
		NewAtomicField(),
		NewErrFlow(),
		NewPubOrder(),
		NewHotAlloc(),
	}
}

// ---- shared type-resolution helpers used by the analyzers ----

// ModulePath is the module all analyzers treat as "ours".
const ModulePath = "fishstore"

// inModule reports whether pkg (a package path) belongs to the FishStore
// module.
func inModulePath(path string) bool {
	path = basePath(path) // test variants ("fishstore [fishstore.test]") count
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// calleeOf resolves the object a call expression invokes, looking through
// parentheses. It returns nil for calls through function values, built-ins,
// and type conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// basePath strips go list's test-variant decoration from a package path:
// "fishstore [fishstore.test]" → "fishstore". Display names, baseline keys,
// and exact package-path comparisons all go through this, so a -tests load
// produces the same messages (and the same hot-call-graph edges) as a
// production load of the same sources.
func basePath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// pkgPath is basePath applied to a types.Package (nil-safe: "").
func pkgPath(p *types.Package) string {
	if p == nil {
		return ""
	}
	return basePath(p.Path())
}

// typeString renders a type with undecorated package paths (see basePath).
func typeString(t types.Type) string {
	return types.TypeString(t, pkgPath)
}

// funcDisplayName renders a *types.Func as a stable, human-readable key:
//
//	time.Sleep
//	(*sync.WaitGroup).Wait
//	(fishstore/internal/storage.Device).ReadAt
//
// Package paths are fully qualified; methods on pointer receivers carry the
// leading *.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		if fn.Pkg() == nil {
			return fn.Name()
		}
		return pkgPath(fn.Pkg()) + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	star := ""
	if p, ok := recv.(*types.Pointer); ok {
		star = "*"
		recv = p.Elem()
	}
	name := "?"
	switch t := recv.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			name = pkgPath(t.Obj().Pkg()) + "." + t.Obj().Name()
		} else {
			name = t.Obj().Name()
		}
	case *types.Interface:
		name = typeString(recv)
	default:
		name = typeString(recv)
	}
	return "(" + star + name + ")." + fn.Name()
}

// namedOrInterfaceMethodName resolves the display name of the method a
// selector call resolves to, preferring the interface the method is called
// through (so (storage.Device).ReadAt matches regardless of the concrete
// device behind it).
func callDisplayName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil {
		return ""
	}
	// Interface methods promoted from an embedded interface (e.g.
	// storage.Device embedding io.ReaderAt) resolve to the embedded
	// interface's *types.Func; render them through the static receiver type
	// the call site names, so (storage.Device).ReadAt matches regardless of
	// where the method is declared.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				recv := s.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if n, ok := recv.(*types.Named); ok && n.Obj().Pkg() != nil {
					return "(" + pkgPath(n.Obj().Pkg()) + "." + n.Obj().Name() + ")." + fn.Name()
				}
			}
		}
	}
	return funcDisplayName(fn)
}
