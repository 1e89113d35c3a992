package main

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

// TestModuleIsClean is the in-tree mirror of the CI gate: the whole
// module must be free of suite findings. A failure here names the
// violated invariant and its location; fix the code or add a documented
// //lint:ignore directive at the finding site.
func TestModuleIsClean(t *testing.T) {
	root, modPath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(modPath, root)
	paths, err := loader.ModulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no packages found in module")
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		findings, err := analysis.RunAnalyzers(loader.Fset, pkg, suite())
		if err != nil {
			t.Fatalf("running suite on %s: %v", path, err)
		}
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(root, f.Position.Filename); err == nil {
				rel.Position.Filename = r
			}
			t.Errorf("%s", rel)
		}
	}
}

// TestSuiteIsComplete pins the analyzer roster: a new analyzer must be
// registered here and in DESIGN.md's invariant table.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{"ctxflow", "detfloat", "doccheck", "pooltask"}
	got := suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
	}
}
