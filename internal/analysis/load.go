package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Module is the module path the loader resolved against.
	Module string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset positions every file in the load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the type-checker's results; Info is non-nil
	// even when the check reported errors (analysis degrades, it does
	// not crash).
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check failures, normally empty for a
	// building tree.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module from source.
// It is stdlib-only: module-internal imports are resolved by directory
// layout, everything else through go/importer's source mode, so it
// needs neither compiled export data nor external tooling.
//
// LoadModule runs a parallel pipeline: all files parse concurrently
// (token.FileSet is concurrency-safe), then packages type-check in
// dependency waves over a worker pool sized to GOMAXPROCS. Completed
// *types.Package values are immutable and shared; the stdlib source
// importer is NOT concurrency-safe, so it sits behind stdmu — the first
// package to import a stdlib path pays for it, everyone after reuses
// the importer's cache.
type Loader struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset *token.FileSet
	std  types.ImporterFrom
	// mu guards pkgs and loading; stdmu serializes the stdlib importer.
	mu      sync.Mutex
	stdmu   sync.Mutex
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader finds the module enclosing dir and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}
	return &Loader{
		Root:    root,
		Module:  mod,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", path)
}

// LoadModule loads every package in the module, sorted by import path.
// Directories named testdata (analyzer fixtures — intentionally full of
// violations) and hidden directories are skipped.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		paths[i] = l.Module
		if rel != "." {
			paths[i] = l.Module + "/" + filepath.ToSlash(rel)
		}
	}
	out, err := l.loadParallel(dirs, paths)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// loadParallel is the two-phase pipeline: parse everything concurrently,
// then type-check in dependency waves.
func (l *Loader) loadParallel(dirs, paths []string) ([]*Package, error) {
	// Phase 1: parse. Independent per package; the shared FileSet is
	// synchronized internally.
	parsed := make([]*parsedPkg, len(dirs))
	perr := make([]error, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range dirs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			parsed[i], perr[i] = l.parsePackage(dirs[i], paths[i])
		}(i)
	}
	wg.Wait()
	for _, err := range perr {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: the module-internal import DAG, from the parsed imports.
	index := make(map[string]int, len(paths))
	for i, path := range paths {
		index[path] = i
	}
	deps := make([][]int, len(parsed))
	for i, pp := range parsed {
		seen := make(map[int]bool)
		for _, imp := range pp.imports {
			if j, ok := index[imp]; ok && j != i && !seen[j] {
				seen[j] = true
				deps[i] = append(deps[i], j)
			}
		}
	}

	// Phase 3: type-check in waves. A package is ready when every
	// module-internal dependency is checked; each wave runs on the
	// worker pool. An empty wave with work remaining is an import cycle.
	checked := make([]bool, len(parsed))
	remaining := len(parsed)
	for remaining > 0 {
		var wave []int
		for i := range parsed {
			if checked[i] {
				continue
			}
			ready := true
			for _, j := range deps[i] {
				if !checked[j] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, i)
			}
		}
		if len(wave) == 0 {
			for i := range parsed {
				if !checked[i] {
					return nil, fmt.Errorf("analysis: import cycle through %s", paths[i])
				}
			}
		}
		for _, i := range wave {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				l.typeCheck(parsed[i])
			}(i)
		}
		wg.Wait()
		for _, i := range wave {
			checked[i] = true
		}
		remaining -= len(wave)
	}

	out := make([]*Package, 0, len(paths))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, path := range paths {
		out = append(out, l.pkgs[path])
	}
	return out, nil
}

// LoadDir loads the single package in dir under the given import path —
// the entry point for analyzer fixtures, whose directories live outside
// the module's package tree. Fixture code may import module packages;
// they resolve against the loader's module.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(abs, importPath)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// load returns the module package with the given import path, checking
// it (and, recursively, its module-internal imports) on first use.
func (l *Loader) load(path string) (*Package, error) {
	l.mu.Lock()
	if pkg, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return pkg, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.mu.Unlock()
	dir := l.Root
	if path != l.Module {
		rel, ok := strings.CutPrefix(path, l.Module+"/")
		if !ok {
			return nil, fmt.Errorf("analysis: %s is not in module %s", path, l.Module)
		}
		dir = filepath.Join(l.Root, filepath.FromSlash(rel))
	}
	return l.check(dir, path)
}

// check parses and type-checks the package in dir as importPath — the
// depth-first path used by LoadDir fixtures and any
// module-internal import the parallel planner did not schedule first.
func (l *Loader) check(dir, importPath string) (*Package, error) {
	l.mu.Lock()
	l.loading[importPath] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, importPath)
		l.mu.Unlock()
	}()

	pp, err := l.parsePackage(dir, importPath)
	if err != nil {
		return nil, err
	}
	return l.typeCheck(pp), nil
}

// parsedPkg is phase-1 output: a parsed, not yet type-checked package.
type parsedPkg struct {
	dir, importPath string
	files           []*ast.File
	// imports are the file-level import paths, for DAG construction.
	imports []string
}

// parsePackage reads and parses one directory. Safe to call
// concurrently: the shared FileSet synchronizes itself.
func (l *Loader) parsePackage(dir, importPath string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	pp := &parsedPkg{dir: dir, importPath: importPath}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !buildIncluded(src) {
			continue // excluded by its //go:build constraint
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pp.files = append(pp.files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				pp.imports = append(pp.imports, p)
			}
		}
	}
	if len(pp.files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return pp, nil
}

// typeCheck runs phase 2 on one parsed package and caches the result.
// Callers must guarantee the package's module-internal imports are
// already checked (the wave scheduler does; the sequential path checks
// them recursively through the importer).
func (l *Loader) typeCheck(pp *parsedPkg) *Package {
	pkg := &Package{Path: pp.importPath, Module: l.Module, Dir: pp.dir, Fset: l.fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &loaderImporter{l: l},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pp.importPath, l.fset, pp.files, info) // errors already collected
	pkg.Files = pp.files
	pkg.Types = tpkg
	pkg.Info = info
	l.mu.Lock()
	l.pkgs[pp.importPath] = pkg
	l.mu.Unlock()
	return pkg
}

// buildIncluded evaluates the file's build constraint (a //go:build or
// legacy // +build line above the package clause) against the loader's
// view of the world. Build-tagged variant files — internal/race's
// race/!race pair is the archetype — would otherwise all load into one
// package and collide.
func buildIncluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(buildTagSatisfied)
			}
			continue
		}
		break // package clause or code: constraints must precede it
	}
	return true
}

// buildTagSatisfied is the tag environment constraints evaluate in:
// the host OS and architecture, the gc toolchain, and every released
// language version. Instrumentation tags like race are off — the
// loader analyzes the default build, matching what `go build` compiles
// without extra flags.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly", "illumos":
			return true
		}
	}
	return strings.HasPrefix(tag, "go1.")
}

// loaderImporter resolves imports during type checking: module-internal
// paths through the loader, everything else through the stdlib's
// source-mode importer.
type loaderImporter struct{ l *Loader }

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.l.Root, 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := li.l
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	// The source-mode stdlib importer is not concurrency-safe; serialize
	// it. Its internal cache makes every import after the first cheap.
	l.stdmu.Lock()
	defer l.stdmu.Unlock()
	return l.std.ImportFrom(path, dir, mode)
}
