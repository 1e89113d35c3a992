package statespace

import "fmt"

// CaseSpec describes one of the twelve Table-I benchmark cases of the
// DATE'11 paper. The paper's models are proprietary industrial interconnect
// macromodels; we substitute synthetic models with the same dynamic order
// and port count, calibrated so that passive cases stay passive and
// non-passive cases exhibit unit-singular-value crossings (see DESIGN.md).
type CaseSpec struct {
	ID           int
	N            int     // dynamic order n
	P            int     // port count p
	PaperNlambda int     // number of imaginary Hamiltonian eigenvalues reported by the paper
	TargetPeak   float64 // calibrated max singular value of the synthetic model
	Seed         int64
	// Reciprocal generates the exactly-reciprocal (symmetric-H) variant of
	// the case, on which the half-size Hamiltonian path engages. The
	// generator rounds N to P times the per-column order.
	Reciprocal bool
}

// TableICases returns the twelve benchmark specifications of Table I.
// Cases 4 and 6 are passive (Nλ = 0) and are generated with peak < 1; the
// others are generated with peaks above 1 scaled loosely with the paper's
// violation count.
func TableICases() []CaseSpec {
	return []CaseSpec{
		{ID: 1, N: 1000, P: 20, PaperNlambda: 6, TargetPeak: 1.010, Seed: 1},
		{ID: 2, N: 1000, P: 20, PaperNlambda: 42, TargetPeak: 1.050, Seed: 2},
		{ID: 3, N: 1000, P: 20, PaperNlambda: 40, TargetPeak: 1.050, Seed: 3},
		{ID: 4, N: 1980, P: 18, PaperNlambda: 0, TargetPeak: 0.950, Seed: 4},
		{ID: 5, N: 2240, P: 56, PaperNlambda: 22, TargetPeak: 1.030, Seed: 5},
		{ID: 6, N: 1728, P: 18, PaperNlambda: 0, TargetPeak: 0.900, Seed: 6},
		{ID: 7, N: 1734, P: 83, PaperNlambda: 10, TargetPeak: 1.020, Seed: 7},
		{ID: 8, N: 1792, P: 56, PaperNlambda: 104, TargetPeak: 1.080, Seed: 8},
		{ID: 9, N: 1702, P: 56, PaperNlambda: 115, TargetPeak: 1.080, Seed: 9},
		{ID: 10, N: 4150, P: 83, PaperNlambda: 114, TargetPeak: 1.080, Seed: 10},
		{ID: 11, N: 1792, P: 56, PaperNlambda: 125, TargetPeak: 1.100, Seed: 11},
		{ID: 12, N: 2432, P: 83, PaperNlambda: 46, TargetPeak: 1.050, Seed: 12},
	}
}

// ReciprocalTableICases returns reciprocal (symmetric-H) variants of a
// representative subset of the Table-I cases: same order, port count, and
// calibrated peak, but generated with the shared-pole symmetric-residue
// structure of a reciprocal device. These are the inputs on which the
// half-size Hamiltonian path engages. IDs are offset by 100 to keep model
// caches distinct.
func ReciprocalTableICases() []CaseSpec {
	var out []CaseSpec
	for _, c := range TableICases() {
		switch c.ID {
		case 1, 2, 5, 8:
			c.ID += 100
			c.Reciprocal = true
			out = append(out, c)
		}
	}
	return out
}

// BuildCase generates the synthetic macromodel for a Table-I case.
func BuildCase(spec CaseSpec) (*Model, error) {
	m, err := Generate(spec.Seed, GenOptions{
		Ports:      spec.P,
		Order:      spec.N,
		TargetPeak: spec.TargetPeak,
		Reciprocal: spec.Reciprocal,
	})
	if err != nil {
		return nil, fmt.Errorf("statespace: case %d: %w", spec.ID, err)
	}
	return m, nil
}

// FindCase returns the spec with the given ID.
func FindCase(id int) (CaseSpec, error) {
	for _, c := range TableICases() {
		if c.ID == id {
			return c, nil
		}
	}
	return CaseSpec{}, fmt.Errorf("statespace: no Table-I case %d", id)
}
