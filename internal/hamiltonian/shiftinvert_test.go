package hamiltonian

import (
	"math/rand"
	"sync"
	"testing"
)

// applyBits runs one ShiftOp apply on a fixed vector and returns the raw
// output — the bit-level fingerprint the tests below compare.
func applyBits(t *testing.T, so *ShiftOp, x []complex128) []complex128 {
	t.Helper()
	y := make([]complex128, len(x))
	if err := so.Apply(y, x); err != nil {
		t.Fatal(err)
	}
	return y
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShiftInvertAfterInvalidation: after an in-place mutation of the
// operator's realization and InvalidateKernels, ShiftInvert must factor
// against the rebuilt kernels — its applies differ from the stale ones and
// match, bit for bit, a fresh operator on the mutated realization.
func TestShiftInvertAfterInvalidation(t *testing.T) {
	base := testModel(t, 24, 2, 12, 1.05)
	op, err := New(base, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	theta := complex(0, 0.6*base.MaxPoleMagnitude())
	rng := rand.New(rand.NewSource(7))
	x := randCVec(rng, op.Dim())

	so, err := op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	stale := applyBits(t, so, x)

	// Mutate the operator's model in place — the enforcement pattern — and
	// invalidate. Op.Model is the balanced clone New made, so the mutation
	// must target it, not `base`.
	work := op.Model
	work.Cols[0].C.Set(0, 0, work.Cols[0].C.At(0, 0)*1.01)
	work.InvalidateKernels()

	so, err = op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	got := applyBits(t, so, x)
	if sameBits(got, stale) {
		t.Fatal("post-invalidation apply equals stale apply: superseded kernels were used")
	}
	// Reference: a fresh operator on the mutated realization. New would
	// re-balance it (different bits), so the reference shares op's
	// realization and coupling directly.
	ref := &Op{Model: work, Rep: op.Rep, N: op.N, P: op.P, w: op.w}
	rso, err := ref.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	want := applyBits(t, rso, x)
	if !sameBits(got, want) {
		t.Fatal("post-invalidation apply differs from a fresh factorization of the mutated model")
	}
}

// TestShiftInvertConcurrentInvalidation hammers one operator from many
// goroutines — ShiftInvert/Apply interleaved with InvalidateKernels
// — and relies on -race to catch a race between the packed-kernel drop and
// the rebuilds it forces in the solving goroutines. Results are not
// compared (the kernels are rebuilt from the same coefficients, so every
// value is the same; the test is about the rebuild's publication).
func TestShiftInvertConcurrentInvalidation(t *testing.T) {
	m := testModel(t, 25, 2, 12, 1.05)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	wmax := m.MaxPoleMagnitude()
	thetas := []complex128{
		complex(0, 0.2*wmax), complex(0, 0.45*wmax),
		complex(0, 0.7*wmax), complex(0, 0.95*wmax),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			x := randCVec(rng, op.Dim())
			y := make([]complex128, op.Dim())
			for iter := 0; iter < 40; iter++ {
				so, err := op.ShiftInvert(thetas[(g+iter)%len(thetas)])
				if err != nil {
					t.Error(err)
					return
				}
				if err := so.Apply(y, x); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		// Only the kernels are dropped concurrently; mutating coefficients
		// here would race with buildPacked in the solver goroutines.
		defer wg.Done()
		for i := 0; i < 20; i++ {
			op.Model.InvalidateKernels()
		}
	}()
	wg.Wait()
}
