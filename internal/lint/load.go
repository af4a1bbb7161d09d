package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package of the analyzed module
// (or of a testdata tree).
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// stdFset and stdImporter type-check standard-library dependencies
// from source, once per process, shared by every Loader (the suite's
// tests would otherwise re-check net/http per analyzer).
var (
	stdFset         = token.NewFileSet()
	stdImporterOnce sync.Once
	stdImporter     types.Importer
)

func sharedStdImporter() types.Importer {
	stdImporterOnce.Do(func() {
		stdImporter = importer.ForCompiler(stdFset, "source", nil)
	})
	return stdImporter
}

// Loader parses and type-checks packages from source. Import paths
// under ModulePath resolve into ModuleDir; paths under an extra root
// (a testdata tree) resolve there; everything else is treated as
// standard library and checked through the shared source importer.
// Load records completion order, a topological order of the loaded
// packages.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	// ExtraDir, when set, resolves any import path that is neither
	// std nor under ModulePath, rooted at this directory (the
	// testdata/src convention of analyzer golden tests).
	ExtraDir string

	pkgs    map[string]*Package
	order   []*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at moduleDir.
func NewLoader(modulePath, moduleDir string) *Loader {
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// Order returns every package this loader has loaded, in dependency
// (completion) order.
func (l *Loader) Order() []*Package { return l.order }

// dirFor maps a loadable import path to its directory, or "" when the
// path is standard library.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	if l.ExtraDir != "" && !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
		// Heuristically local: testdata import paths have no domain
		// dot. Only used when the directory actually exists.
		dir := filepath.Join(l.ExtraDir, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir
		}
	}
	return ""
}

// Import implements types.Importer, so a Loader can be the Importer
// of its own type-checking configuration.
func (l *Loader) Import(path string) (*types.Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return sharedStdImporter().Import(path)
	}
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// Load parses and type-checks the package at the given import path
// (which must resolve through the module or extra root), loading its
// non-std dependencies first.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("lint: %q does not resolve inside the module", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := buildContext().ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// buildContext is go/build with tooling defaults: no cgo (the module
// is pure Go; stdlib source-imports are handled separately), and the
// host GOOS/GOARCH.
func buildContext() *build.Context {
	ctx := build.Default
	ctx.CgoEnabled = false
	return &ctx
}

// RunAnalyzers executes every analyzer over every loaded package and
// returns the findings whose package path satisfies report (nil means
// report everything).
func RunAnalyzers(l *Loader, analyzers []*Analyzer, report func(pkgPath string) bool) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range l.Order() {
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     l.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			if report == nil || report(pkg.Path) {
				all = append(all, diags...)
			}
		}
	}
	SortDiagnostics(l.Fset, all)
	return all, nil
}
