package hamiltonian

import (
	"math/rand"
	"testing"

	"repro/internal/statespace"
)

// BenchmarkShiftInvert sizes one sweep shift on each lane: the per-shift
// SMW factorization plus 60 applies (a typical Arnoldi basis). The full
// lane factors jω on Table-I case 5 (n = 2240, p = 56) and applies on 2n
// complex vectors; the half lane factors τ = −ω² on its reciprocal variant,
// case 105 (same shape), and applies on n real vectors. With -benchmem,
// allocs/op and B/op are the per-shift cost of the factor and the
// operator's scratch, which each ShiftInvert allocates afresh. The models
// are generated into the module's testdata/cases on first use (about a
// minute each). Run with
//
//	go test -run '^$' -bench '^BenchmarkShiftInvert$' -benchmem ./internal/hamiltonian/
func BenchmarkShiftInvert(b *testing.B) {
	const applies = 60
	full, err := statespace.FindCase(5)
	if err != nil {
		b.Fatal(err)
	}
	var half statespace.CaseSpec
	for _, c := range statespace.ReciprocalTableICases() {
		if c.ID == 105 {
			half = c
		}
	}
	for _, c := range []struct {
		name string
		spec statespace.CaseSpec
	}{{"full", full}, {"half", half}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := statespace.CachedCase(c.spec, "../../testdata/cases")
			if err != nil {
				b.Fatal(err)
			}
			op, err := New(m, Scattering)
			if err != nil {
				b.Fatal(err)
			}
			if op.HalfPath() != c.spec.Reciprocal {
				b.Fatalf("half path engaged = %v, want %v", op.HalfPath(), c.spec.Reciprocal)
			}
			omega := 0.5 * m.MaxPoleMagnitude()
			rng := rand.New(rand.NewSource(1))
			var shift func() error
			if op.HalfPath() {
				x, y := randRVec(rng, op.N), make([]float64, op.N)
				shift = func() error {
					so, err := op.ShiftInvertHalf(complex(-(omega * omega), 0))
					if err != nil {
						return err
					}
					for i := 0; i < applies; i++ {
						if err := so.Apply(y, x); err != nil {
							return err
						}
					}
					return nil
				}
			} else {
				x, y := randCVec(rng, op.Dim()), make([]complex128, op.Dim())
				shift = func() error {
					so, err := op.ShiftInvert(complex(0, omega))
					if err != nil {
						return err
					}
					for i := 0; i < applies; i++ {
						if err := so.Apply(y, x); err != nil {
							return err
						}
					}
					return nil
				}
			}
			if err := shift(); err != nil { // build the packed kernels
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shift(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
