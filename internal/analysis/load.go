package analysis

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
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit analyzers run on.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's tables for Files.
	Info *types.Info
}

// Loader parses and type-checks packages from source, with no dependence
// on export data or a module proxy. Import paths under Root's module are
// resolved to directories and loaded recursively; everything else is
// type-checked from GOROOT source via go/importer's "source" compiler
// mode. A Loader memoizes packages, so one Loader should serve a whole
// repolint run. It is not safe for concurrent use.
type Loader struct {
	// ModulePath is the import-path prefix served from ModuleDir. Empty
	// means "any import path that resolves to an existing directory under
	// ModuleDir" — the analysistest fixture layout (testdata/src).
	ModulePath string
	// ModuleDir is the root directory backing ModulePath.
	ModuleDir string
	// Fset positions every file loaded by this Loader.
	Fset *token.FileSet

	std      types.Importer
	pkgs     map[string]*Package
	inflight map[string]bool
}

// NewLoader returns a Loader serving modulePath from moduleDir.
func NewLoader(modulePath, moduleDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		inflight:   make(map[string]bool),
	}
}

// dirFor maps a local import path to its directory, or "" when the path
// is not served by this Loader.
func (l *Loader) dirFor(path string) string {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleDir
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
		}
		return ""
	}
	// Fixture mode: serve any path whose directory exists under ModuleDir.
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

// Import implements types.Importer, routing local paths through the
// Loader and everything else through the source-mode stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at import path (which must be
// served by this Loader), memoized across calls.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.inflight[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: package %q is not under %q", path, l.ModuleDir)
	}
	l.inflight[path] = true
	defer delete(l.inflight, path)

	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// goFileNames lists dir's non-test .go files that build for the target
// platform (file-name suffixes and //go:build lines, as the go tool reads
// them), sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ModulePackages walks the module tree under root (a directory inside or
// at l.ModuleDir) and returns the import paths of every package holding
// at least one non-test Go file. testdata, vendor, hidden, and
// underscore-prefixed directories are skipped, mirroring the go tool.
func (l *Loader) ModulePackages(root string) ([]string, error) {
	if l.ModulePath == "" {
		return nil, fmt.Errorf("analysis: ModulePackages requires a module-rooted Loader")
	}
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else if strings.HasPrefix(rel, "..") {
			return fmt.Errorf("analysis: %s is outside module dir %s", path, l.ModuleDir)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
