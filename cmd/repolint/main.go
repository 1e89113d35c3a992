// Command repolint runs the repository's compile-time invariant suite —
// the analyzers under internal/analysis — over module packages. It is
// both a standalone linter and a `go vet` tool:
//
//	go run ./cmd/repolint ./...                  # standalone, whole module
//	go run ./cmd/repolint ./internal/core        # one package
//	go run ./cmd/repolint -list                  # describe the analyzers
//	go vet -vettool=$(which repolint) ./...      # vet-tool mode
//
// Findings print one per line as file:line:col: analyzer: message, and
// any finding makes the exit status non-zero, so CI can gate on it.
// Deliberate exceptions are suppressed in source with a documented
// directive: //lint:ignore <analyzer>[,<analyzer>] <reason>.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detfloat"
	"repro/internal/analysis/doccheck"
	"repro/internal/analysis/pooltask"
)

// suite is every analyzer repolint runs, sorted by name.
func suite() []*analysis.Analyzer {
	as := []*analysis.Analyzer{
		ctxflow.Analyzer,
		detfloat.Analyzer,
		doccheck.Analyzer,
		pooltask.Analyzer,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

func main() {
	args := os.Args[1:]
	// go vet's tool protocol: version probe, flag discovery, then a
	// .cfg file describing one package.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion()
			return
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Println("[]")
		return
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(vetMode(args[n-1]))
	}
	os.Exit(standalone(args))
}

// standalone lints the given package patterns (default ./...) against
// the enclosing module. Returns the process exit code.
func standalone(args []string) int {
	patterns := []string{"./..."}
	if len(args) > 0 {
		if args[0] == "-list" || args[0] == "--list" {
			for _, a := range suite() {
				fmt.Printf("%s: %s\n", a.Name, a.Doc)
			}
			return 0
		}
		patterns = args
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 2
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 2
	}
	loader := analysis.NewLoader(modPath, root)
	paths, err := resolvePatterns(loader, cwd, root, modPath, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 2
	}
	var all []analysis.Finding
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			return 2
		}
		fs, err := analysis.RunAnalyzers(loader.Fset, pkg, suite())
		if err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			return 2
		}
		all = append(all, fs...)
	}
	for _, f := range all {
		fmt.Println(f)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// resolvePatterns maps command-line package patterns — ./..., dir/...,
// plain directories, or import paths — to module import paths.
func resolvePatterns(loader *analysis.Loader, cwd, root, modPath string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(ps ...string) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ps, err := loader.ModulePackages(root)
			if err != nil {
				return nil, err
			}
			add(ps...)
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(cwd, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			ps, err := loader.ModulePackages(dir)
			if err != nil {
				return nil, err
			}
			add(ps...)
		case strings.HasPrefix(pat, modPath):
			add(pat)
		default:
			dir := filepath.Join(cwd, filepath.FromSlash(pat))
			rel, err := filepath.Rel(root, dir)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("package pattern %q is outside module %s", pat, modPath)
			}
			if rel == "." {
				add(modPath)
			} else {
				add(modPath + "/" + filepath.ToSlash(rel))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
