package server_test

import (
	"strings"
	"testing"

	"repro/internal/server"
)

// TestDecodeJobSpec covers the strict-ingest contract: well-formed specs
// decode, and every malformed shape — unknown fields, trailing data,
// out-of-cap sizes, non-finite floats, over- and under-specified model
// sources — is rejected with an error, never a panic.
func TestDecodeJobSpec(t *testing.T) {
	valid := []string{
		`{"model":{"case":{"id":1}}}`,
		`{"model":{"case":{"id":12,"order":40,"ports":3}},"priority":"interactive","weight":4}`,
		`{"model":{"generate":{"seed":3,"ports":2,"order":16,"target_peak":1.05}},"char":{"seed":9,"threads":2}}`,
		`{"model":{"generate":{"seed":1,"ports":1,"order":1}},"enforce":{"max_iters":3,"margin":0.01}}`,
		`{"model":{"pole_residue":{
			"d":[[0.1,0],[0,0.1]],
			"poles":[[[-1e8,1e9]],[[-2e8,0]]],
			"residues":[[[[1e8,1e7]],[[2e8,0]]],[[[1e8,0]],[[3e8,0]]]]}}}`,
	}
	for _, body := range valid {
		if _, err := server.DecodeJobSpec(strings.NewReader(body)); err != nil {
			t.Errorf("valid spec rejected: %v\n%s", err, body)
		}
	}

	invalid := []struct{ name, body string }{
		{"empty", ``},
		{"not json", `nonsense`},
		{"no model source", `{"model":{}}`},
		{"two model sources", `{"model":{"case":{"id":1},"generate":{"seed":1,"ports":1,"order":1}}}`},
		{"unknown field", `{"model":{"case":{"id":1}},"bogus":true}`},
		{"trailing data", `{"model":{"case":{"id":1}}} {"again":1}`},
		{"unknown case", `{"model":{"case":{"id":99}}}`},
		{"ports over cap", `{"model":{"generate":{"seed":1,"ports":65,"order":10}}}`},
		{"order over cap", `{"model":{"generate":{"seed":1,"ports":2,"order":5000}}}`},
		{"bad priority", `{"model":{"case":{"id":1}},"priority":"urgent"}`},
		{"negative weight", `{"model":{"case":{"id":1}},"weight":-1}`},
		{"weight over cap", `{"model":{"case":{"id":1}},"weight":1001}`},
		{"negative probes", `{"model":{"case":{"id":1}},"char":{"probe_points":-1}}`},
		{"margin over one", `{"model":{"case":{"id":1}},"enforce":{"margin":1.5}}`},
		{"ragged D", `{"model":{"pole_residue":{"d":[[0.1,0],[0]],"poles":[[[-1,0]],[[-1,0]]],"residues":[[[[1,0]],[[1,0]]],[[[1,0]],[[1,0]]]]}}}`},
		{"residue shape", `{"model":{"pole_residue":{"d":[[0.1]],"poles":[[[-1,0]]],"residues":[[]]}}}`},
	}
	for _, tc := range invalid {
		if _, err := server.DecodeJobSpec(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted, want rejection\n%s", tc.name, tc.body)
		}
	}

	// Enforcement is cold-start only: the retired warm-start switch is an
	// unknown field on ingest, and the error says which one.
	_, err := server.DecodeJobSpec(strings.NewReader(`{"model":{"case":{"id":1}},"enforce":{"cold_start":true}}`))
	if err == nil || !strings.Contains(err.Error(), "cold_start") {
		t.Errorf("retired cold_start field: want an error naming it, got %v", err)
	}
}

// TestSpecBuildModelPoleResidue realizes an explicit pole–residue spec
// and checks the resulting dimensions.
func TestSpecBuildModelPoleResidue(t *testing.T) {
	body := `{"model":{"pole_residue":{
		"d":[[0.1,0],[0,0.1]],
		"poles":[[[-1e8,1e9]],[[-2e8,0]]],
		"residues":[[[[1e8,1e7]],[[2e8,0]]],[[[1e8,0]],[[3e8,0]]]]}}}`
	spec, err := server.DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 2 {
		t.Fatalf("ports %d, want 2", m.P)
	}
	// Column 0 holds one complex pair (order 2), column 1 one real pole.
	if got := m.Order(); got != 3 {
		t.Fatalf("order %d, want 3", got)
	}
	// Unstable poles survive JSON decode but die in realization.
	bad := `{"model":{"pole_residue":{"d":[[0.1]],"poles":[[[1e8,0]]],"residues":[[[[1,0]]]]}}}`
	spec, err = server.DecodeJobSpec(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.BuildModel(); err == nil {
		t.Fatal("unstable pole accepted by BuildModel")
	}
}
