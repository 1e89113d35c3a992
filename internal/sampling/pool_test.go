package sampling

import (
	"testing"

	"repro/internal/core"
)

// TestSamplingPoolRoutedMatchesLocal: routing the bootstrap σ-sweep
// through a shared pool must leave crossings, verdict, and the evaluation
// count identical to the private-goroutine path — the pool changes where
// the per-ω tasks run, never what they compute.
func TestSamplingPoolRoutedMatchesLocal(t *testing.T) {
	m := genModel(t, 77, 24, 1.06)
	local, err := Characterize(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	p := core.NewPool(4)
	defer p.Close()
	pooled, err := Characterize(m, Options{Client: p.NewClient(core.ClientOptions{})})
	if err != nil {
		t.Fatal(err)
	}

	if len(pooled.Crossings) != len(local.Crossings) {
		t.Fatalf("pooled found %d crossings, local %d", len(pooled.Crossings), len(local.Crossings))
	}
	for i := range pooled.Crossings {
		if pooled.Crossings[i] != local.Crossings[i] {
			t.Fatalf("crossing %d: pooled %+v != local %+v", i, pooled.Crossings[i], local.Crossings[i])
		}
	}
	if pooled.Passive != local.Passive || pooled.Evaluations != local.Evaluations {
		t.Fatalf("pooled verdict/evals (%v, %d) diverged from local (%v, %d)",
			pooled.Passive, pooled.Evaluations, local.Passive, local.Evaluations)
	}
	// The grid points must have been executed as pool tasks.
	if st := p.PhaseStats()[core.PhaseSample]; st.Tasks == 0 {
		t.Fatal("no PhaseSample tasks executed on the pool")
	}
}
