// Package analysis is the repo's compile-time invariant framework: a
// self-contained, stdlib-only mirror of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a source-based package
// loader and a driver that honors //lint:ignore suppression directives.
//
// The analyzers under internal/analysis/... encode contracts that the
// runtime test batteries can only probe dynamically — determinism of the
// bit-identity packages (detfloat), the context-threading cancellation
// contract (ctxflow), scheduler task hygiene (pooltask), and the
// documentation gate (doccheck). cmd/repolint runs them all, standalone or as a
// `go vet -vettool`.
//
// The framework is deliberately dependency-free: the build environment
// has no module proxy access, so the x/tools analysis machinery is
// re-derived here on top of go/ast, go/types, and go/importer. The API
// shape is kept close enough to x/tools that migrating later is a
// mechanical rename.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name (used in findings and
// in //lint:ignore directives), a doc string, and the per-package Run
// function.
type Analyzer struct {
	// Name identifies the analyzer in output and suppression directives.
	// It must be a valid identifier-like word ("detfloat").
	Name string
	// Doc is the analyzer's one-paragraph documentation, shown by
	// `repolint -list`.
	Doc string
	// Run executes the analyzer against one type-checked package. It
	// reports findings through pass.Report and returns an error only for
	// internal failures (not findings).
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values of Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed files (with comments).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression/object tables.
	TypesInfo *types.Info
	// Report delivers one finding. The driver filters suppressed
	// findings and attaches the analyzer name.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The analyzer name
// is attached by the driver.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violated invariant. It must not embed the
	// analyzer name; the driver prefixes it.
	Message string
}

// Finding is a resolved diagnostic as emitted by the driver: analyzer
// name, concrete file position, and message.
type Finding struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Position is the resolved file:line:column location.
	Position token.Position
	// Message is the diagnostic message.
	Message string
}

// String formats a finding the way compilers and editors expect:
// "file:line:col: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Position, f.Analyzer, f.Message)
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Analyzers use it to restrict themselves to production code: the
// invariants guard shipped behavior, and tests legitimately use wall
// clocks, map ranges, and context.Background.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathHasSegment reports whether slash-separated path contains the exact
// segment seg. Analyzers use it to gate on package-path structure
// ("internal", "core", ...) without tying themselves to the module name.
func PathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// WalkStack traverses the AST rooted at root, invoking fn for every node
// with the stack of its ancestors (outermost first, not including n
// itself). If fn returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
