package arnoldi

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// BenchmarkSweep times one restart's worth of Arnoldi-layer work at the
// size of the case-5 Hamiltonian (2n = 4480): a full d = 60 factorization
// deflated against ten locked vectors (MGS with selective
// reorthogonalization), Ritz extraction, and the lift of one Ritz vector.
// The operator is a seeded tridiagonal matrix whose apply costs O(n), so
// the timing is the Arnoldi layer's own — basis orthogonalization and the
// projected eigenproblem — and not a structured operator's.
//
//	go test -run '^$' -bench '^BenchmarkSweep$' -benchmem ./internal/arnoldi/
func BenchmarkSweep(b *testing.B) {
	const dim, nLocked = 4480, 10
	b.Run("complex", func(b *testing.B) {
		rng := rand.New(rand.NewSource(41))
		benchSweep[complex128](b, complexLane{newBandOp(dim, func() complex128 {
			return complex(rng.NormFloat64(), rng.NormFloat64())
		})}, nLocked)
	})
	b.Run("real", func(b *testing.B) {
		rng := rand.New(rand.NewSource(42))
		benchSweep[float64](b, realLane{newBandOp(dim, rng.NormFloat64)}, nLocked)
	})
}

func benchSweep[T mat.Scalar](b *testing.B, l lane[T], nLocked int) {
	rng := rand.New(rand.NewSource(43))
	// The locked set is the orthonormal basis of a short first sweep.
	seed, err := run(l, l.randomStart(rng), nil, Config{MaxDim: nLocked, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	locked := seed.V[:nLocked]
	start := l.randomStart(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := run(l, start, locked, Config{MaxDim: 60, Rng: rng})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.RitzPairs(); err != nil {
			b.Fatal(err)
		}
		f.RitzVector(0)
	}
}

// bandOp is a tridiagonal operator y = lo·x₋₁ + d·x + up·x₊₁ over either
// scalar field, with entries drawn from next.
type bandOp[T mat.Scalar] struct{ lo, d, up []T }

func newBandOp[T mat.Scalar](n int, next func() T) bandOp[T] {
	op := bandOp[T]{lo: make([]T, n), d: make([]T, n), up: make([]T, n)}
	for i := 0; i < n; i++ {
		op.lo[i], op.d[i], op.up[i] = next(), next(), next()
	}
	return op
}

func (o bandOp[T]) Dim() int { return len(o.d) }

func (o bandOp[T]) Apply(y, x []T) error {
	n := len(o.d)
	for i := 0; i < n; i++ {
		s := o.d[i] * x[i]
		if i > 0 {
			s += o.lo[i] * x[i-1]
		}
		if i+1 < n {
			s += o.up[i] * x[i+1]
		}
		y[i] = s
	}
	return nil
}
