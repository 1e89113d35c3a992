package passivity

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hamiltonian"
	"repro/internal/statespace"
)

// TestEnforceMatchesDenseTruth holds every enforced model to checks that
// share nothing with the multi-shift characterization that certified it:
// a dense eigensolve of the final model's Hamiltonian must find no purely
// imaginary eigenvalue, and a σ_max sweep must agree with the final
// report. The battery is the package's enforcement seeds plus Table-I
// case 2 and its reciprocal variant (case 102, half-size path) at a fifth
// of their order.
func TestEnforceMatchesDenseTruth(t *testing.T) {
	type entry struct {
		name  string
		model func(t *testing.T) *statespace.Model
		opts  EnforceOptions
	}
	var battery []entry
	for _, g := range []struct {
		seed   int64
		order  int
		peak   float64
		margin float64
	}{
		{44, 22, 1.05, 0},
		{46, 22, 1.08, 0},
		{54, 20, 1.04, 5e-3},
		{145, 22, 1.06, 0},
		{146, 22, 1.06, 0},
	} {
		battery = append(battery, entry{
			name:  fmt.Sprintf("seed%d", g.seed),
			model: func(t *testing.T) *statespace.Model { return genModel(t, g.seed, g.order, g.peak) },
			opts:  EnforceOptions{Char: charOpts(), Margin: g.margin},
		})
	}
	for _, spec := range append(statespace.TableICases(), statespace.ReciprocalTableICases()...) {
		if spec.ID != 2 && spec.ID != 102 {
			continue
		}
		spec.N /= 5
		battery = append(battery, entry{
			name: fmt.Sprintf("case%d", spec.ID),
			model: func(t *testing.T) *statespace.Model {
				m, err := statespace.BuildCase(spec)
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			opts: EnforceOptions{Char: Options{Core: core.Options{Threads: 2, Seed: 1}}},
		})
	}
	for _, e := range battery {
		t.Run(e.name, func(t *testing.T) {
			m := e.model(t)
			out, rep, err := Enforce(m, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.InitialWorst <= 1 {
				t.Fatalf("input model already passive (worst σ %g); nothing was enforced", rep.InitialWorst)
			}
			if !rep.FinalReport.Passive {
				t.Fatalf("final report not passive after %d iterations", rep.Iterations)
			}
			op, err := hamiltonian.New(out, hamiltonian.Scattering)
			if err != nil {
				t.Fatal(err)
			}
			crossings, err := op.FullImagEigs(1e-6)
			if err != nil {
				t.Fatal(err)
			}
			if len(crossings) != 0 {
				t.Fatalf("dense eigensolve finds imaginary eigenvalues at ω = %v on the enforced model", crossings)
			}
			if err := VerifyBySampling(out, rep.FinalReport, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}
