// Package analysistest runs an analyzer over fixture packages under the
// calling test's testdata/src directory and checks its findings against
// // want annotations, mirroring the x/tools analysistest contract on the
// repo's stdlib-only analysis framework.
//
// A fixture file marks expected findings with trailing comments:
//
//	for k := range m { // want `map iteration`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression; one finding on that line must match each. Lines without a
// want comment must produce no findings, so a fixture package with no
// annotations at all doubles as a negative (clean) case.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one want-regexp at a (file, line), matched at most once.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads each fixture package path from dir/src, applies a, and fails
// t on any mismatch between findings and // want annotations. dir is
// usually "testdata".
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join(dir, "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader("", src)
	for _, path := range pkgPaths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		findings, err := analysis.RunAnalyzers(loader.Fset, pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, path, err)
			continue
		}
		expects, err := wantComments(loader, pkg)
		if err != nil {
			t.Errorf("fixture %s: %v", path, err)
			continue
		}
		for _, f := range findings {
			if !consume(expects, f) {
				t.Errorf("%s: unexpected finding: %s: %s", path, f.Position, f.Message)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s: %s:%d: no finding matched want %q", path, e.file, e.line, e.raw)
			}
		}
	}
}

// consume marks the first unmatched expectation on the finding's line
// whose regexp matches the message, reporting whether one existed.
func consume(expects []*expectation, f analysis.Finding) bool {
	for _, e := range expects {
		if e.matched || e.file != f.Position.Filename || e.line != f.Position.Line {
			continue
		}
		if e.re.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantComments extracts every // want expectation from the package.
func wantComments(loader *analysis.Loader, pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				raws, err := wantPatterns(strings.TrimPrefix(text, "want "))
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, raw := range raws {
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out, nil
}

// wantPatterns splits `"re" "re2"` / “ `re` “ sequences into their
// unquoted regexp sources.
func wantPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want pattern must be a quoted or backquoted string: %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern: %q", s)
		}
		lit := s[:end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %v", lit, err)
		}
		out = append(out, unq)
		s = strings.TrimSpace(s[end+2:])
	}
	return out, nil
}
