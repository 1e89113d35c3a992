// Package doccheck is the documentation gate, run by the analyzer suite's
// one driver alongside the other invariants. It reports a package that lacks a package-level doc
// comment and every exported top-level identifier — function, method on
// an exported type, type, const, var — that lacks one. A doc comment on
// a grouped const/var/type declaration covers the whole group.
package doccheck

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the doccheck instance registered with cmd/repolint.
var Analyzer = &analysis.Analyzer{
	Name: "doccheck",
	Doc: "exported top-level identifiers and packages must carry doc comments " +
		"(a group doc covers grouped const/var/type specs)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	hasPkgDoc := false
	var first *ast.File
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		if first == nil {
			first = f
		}
		if f.Doc != nil {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && first != nil {
		pass.Reportf(first.Name.Pos(), "package %s missing package doc comment", pass.Pkg.Name())
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		checkFile(pass, f)
	}
	return nil
}

// checkFile reports every undocumented exported top-level identifier of
// one file.
func checkFile(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if recv := receiverType(d); recv != "" {
				if !ast.IsExported(recv) {
					continue // method on an unexported type: not API surface
				}
				pass.Reportf(d.Pos(), "exported method %s.%s missing doc comment", recv, d.Name.Name)
				continue
			}
			pass.Reportf(d.Pos(), "exported function %s missing doc comment", d.Name.Name)
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && !groupDoc && s.Doc == nil {
						pass.Reportf(s.Pos(), "exported type %s missing doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					if groupDoc || s.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							pass.Reportf(n.Pos(), "exported const/var %s missing doc comment", n.Name)
						}
					}
				}
			}
		}
	}
}

// receiverType returns the bare receiver type name of a method ("" for
// plain functions), unwrapping pointers and type parameters.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "(unknown)"
		}
	}
}
