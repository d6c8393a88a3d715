// Package lint is FishStore's repo-specific static-analysis suite
// ("fishlint"). It mechanically enforces the latch-free invariants the Go
// type system cannot express — epoch-protection discipline, atomic-access
// consistency, publication ordering, hot-path allocation budgets, and error
// propagation from internal APIs — each pinned to a bug class this
// repository has already shipped and fixed once by hand (see DESIGN.md §9).
//
// The driver is built exclusively on the standard library: packages are
// enumerated with `go list -json -deps`, parsed with go/parser, and
// type-checked with go/types through a source importer that walks the same
// `go list` metadata. No golang.org/x/tools dependency is required.
//
// Loading is parallel: the import DAG is type-checked with one goroutine per
// package, each blocking on a per-package completion channel until its
// dependencies finish. The FileSet is shared (token.FileSet is safe for
// concurrent use) so every analyzer in a run sees identical positions and
// type objects. The analyzers then run serially over the loaded packages.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes. With
// -test, go list also reports synthesized test packages: "pkg.test" (the
// generated test main), "pkg [pkg.test]" (the package recompiled with its
// in-package _test.go files), and "pkg_test [pkg.test]" (the external test
// package, whose GoFiles are the original package's XTestGoFiles); ForTest
// names the package under test, and ImportMap redirects imports of the plain
// package to its test variant.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	ForTest    string
	ImportMap  map[string]string
	Standard   bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// LoadConfig parameterizes a Load.
type LoadConfig struct {
	// Dir is the directory patterns resolve against.
	Dir string
	// Tests loads packages in test mode (go list -test): _test.go files, both
	// in-package and external, are analyzed alongside production sources.
	Tests bool
}

// loadState is the per-import-path completion record: the first goroutine to
// claim a path type-checks it; everyone else blocks on done.
type loadState struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// loader resolves and type-checks packages on demand, caching by import
// path so that every analyzer in a run sees identical type objects (the
// atomicfield analyzer aggregates facts across packages by object identity).
// All fields behind mu are shared across the loading goroutines.
type loader struct {
	dir  string
	fset *token.FileSet
	meta map[string]*listPkg // immutable after construction

	mu    sync.Mutex
	state map[string]*loadState
	pkgs  map[string]*Package // retained ASTs+Info for module-local packages
}

// Load expands the package patterns (e.g. "./...") relative to dir with the
// go tool, then parses and type-checks every matched package plus — lazily —
// its transitive dependencies from source. It returns the matched packages
// in the order the go tool reported them.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return LoadPkgs(LoadConfig{Dir: dir}, patterns...)
}

// LoadTests is Load in test mode: go list runs with -test, so every matched
// package with _test.go files yields its test variants instead of (not in
// addition to) the plain package — "pkg [pkg.test]" carries the package's own
// files plus its in-package tests, and "pkg_test [pkg.test]" the external
// test package. The generated test mains ("pkg.test") are never analyzed.
func LoadTests(dir string, patterns ...string) ([]*Package, error) {
	return LoadPkgs(LoadConfig{Dir: dir, Tests: true}, patterns...)
}

// LoadPkgs is the general entry point behind Load and LoadTests.
func LoadPkgs(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("lint: no package patterns given")
	}
	targets, err := goList(cfg, false, patterns)
	if err != nil {
		return nil, err
	}
	universe, err := goList(cfg, true, patterns)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		dir:   cfg.Dir,
		fset:  token.NewFileSet(),
		meta:  make(map[string]*listPkg, len(universe)),
		state: make(map[string]*loadState, len(universe)),
		pkgs:  make(map[string]*Package),
	}
	for _, p := range universe {
		ld.meta[p.ImportPath] = p
	}
	// In test mode the plain package is subsumed by its in-package test
	// variant (same files plus the tests): analyzing both would duplicate
	// every finding on the shared files.
	subsumed := make(map[string]bool)
	if cfg.Tests {
		for _, t := range targets {
			if t.ForTest != "" && t.ImportPath == t.ForTest+" ["+t.ForTest+".test]" {
				subsumed[t.ForTest] = true
			}
		}
	}
	var wanted []*listPkg
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", t.ImportPath, t.Error.Err)
		}
		if t.Name == "" || len(t.GoFiles) == 0 {
			continue // no buildable Go files (e.g. directory of fixtures only)
		}
		if strings.HasSuffix(t.ImportPath, ".test") && t.Name == "main" {
			continue // generated test main: nothing hand-written to analyze
		}
		if subsumed[t.ImportPath] {
			continue
		}
		wanted = append(wanted, t)
	}
	// Fan the targets out: each goroutine loads one target's dependency
	// chain; shared dependencies are claimed exactly once through the
	// per-path loadState and prefetched breadth-first, so the whole import
	// DAG checks with the parallelism the machine offers.
	var wg sync.WaitGroup
	errs := make([]error, len(wanted))
	for i, t := range wanted {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			_, errs[i] = ld.load(path)
		}(i, t.ImportPath)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*Package, 0, len(wanted))
	for _, t := range wanted {
		pkg, ok := ld.pkgs[t.ImportPath]
		if !ok {
			return nil, fmt.Errorf("lint: %s: loaded but not retained", t.ImportPath)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// goList shells out to `go list -json` (with -deps when deps is true) and
// decodes the JSON stream. CGO is disabled so the reported GoFiles are a
// pure-Go, type-checkable file set.
func goList(cfg LoadConfig, deps bool, patterns []string) ([]*listPkg, error) {
	args := []string{"list", "-json"}
	if deps {
		args = append(args, "-deps")
	}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("lint: go list %s: %s", strings.Join(patterns, " "), msg)
	}
	dec := json.NewDecoder(&stdout)
	var out []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// load parses and type-checks path (and, recursively through Import, its
// dependencies), returning its types.Package. The first caller for a path
// performs the work; concurrent callers block until it completes. The import
// graph is acyclic, so the blocking cannot deadlock.
func (ld *loader) load(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	ld.mu.Lock()
	st, ok := ld.state[path]
	if ok {
		ld.mu.Unlock()
		<-st.done
		return st.pkg, st.err
	}
	st = &loadState{done: make(chan struct{})}
	ld.state[path] = st
	ld.mu.Unlock()
	st.pkg, st.err = ld.check(path)
	close(st.done)
	return st.pkg, st.err
}

// check does the actual parse + type-check of one claimed path.
func (ld *loader) check(path string) (*types.Package, error) {
	meta, ok := ld.meta[path]
	if !ok {
		// Standard-library packages import their vendored copies of
		// golang.org/x/... by unprefixed path; go list reports them under
		// vendor/.
		if meta, ok = ld.meta["vendor/"+path]; !ok {
			return nil, fmt.Errorf("lint: package %q not in go list dependency set", path)
		}
	}
	if meta.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", path, meta.Error.Err)
	}
	// Warm the imports breadth-first: spawning the claims here (instead of
	// waiting for the type-checker to pull them one by one through Import)
	// is what lets independent subtrees of the DAG check concurrently.
	for _, imp := range meta.Imports {
		if mapped, ok := meta.ImportMap[imp]; ok {
			imp = mapped
		}
		if imp == "unsafe" || imp == "C" {
			continue
		}
		go func(p string) {
			// The prefetch only warms the claim: whichever package actually
			// imports p re-surfaces the error through its own Import call.
			_, _ = ld.load(p)
		}(imp)
	}
	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		// Imports resolve through this package's ImportMap first: an external
		// test package's import of the package under test must land on the
		// "pkg [pkg.test]" variant, not the plain compilation.
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if mapped, ok := meta.ImportMap[p]; ok {
				p = mapped
			}
			return ld.load(p)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, firstErr)
	}
	if meta.Module != nil {
		ld.mu.Lock()
		ld.pkgs[path] = &Package{
			PkgPath: path,
			Name:    meta.Name,
			Dir:     meta.Dir,
			Fset:    ld.fset,
			Files:   files,
			Types:   pkg,
			Info:    info,
		}
		ld.mu.Unlock()
	}
	return pkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
