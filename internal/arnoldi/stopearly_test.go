package arnoldi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// projectedHs captures the projected Hessenberg matrices of one d = 60
// sweep of l: the copies StopEarly receives at k = 10, 20, …, 50 and the
// final H at k = 60.
func projectedHs[T mat.Scalar](t *testing.T, l lane[T], rng *rand.Rand) []*mat.CDense {
	t.Helper()
	var hs []*mat.CDense
	cfg := Config{MaxDim: 60, Rng: rng, CheckEvery: 10,
		StopEarly: func(h *mat.CDense, _ float64, _ int) bool {
			hs = append(hs, h.Clone())
			return false
		}}
	f, err := run(l, l.randomStart(rng), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Steps != 60 || len(hs) != 5 {
		t.Fatalf("sweep ran %d steps with %d checks, want 60 and 5", f.Steps, len(hs))
	}
	return append(hs, f.H)
}

// TestHessenbergRitzEstimatesMatchCEig holds the StopEarly check's cheap
// eigensolve to the full one on projected matrices from real shift-invert
// sweeps on both lanes: the same eigenvalues to rounding, and the same
// last-row magnitudes of the unit eigenvectors, which scale into the
// residual estimates the stop decision reads.
func TestHessenbergRitzEstimatesMatchCEig(t *testing.T) {
	const n = 160
	rng := rand.New(rand.NewSource(51))
	ac := randomCMat(rng, n)
	ar := randomRealMat(rng, n)
	hs := projectedHs[complex128](t, complexLane{newDenseShiftInv(t, ac, complex(0.3, 0.4))}, rng)
	hs = append(hs, projectedHs[float64](t, realLane{newDenseRealShiftInv(t, ar, 0.3)}, rng)...)
	// A lucky breakdown inside the window leaves a zero subdiagonal: H is
	// block upper triangular.
	broken := hs[2].Clone()
	broken.Set(17, 16, 0)
	hs = append(hs, broken)

	for c, h := range hs {
		k := h.Rows
		vals, vecs, err := mat.CEig(h)
		if err != nil {
			t.Fatal(err)
		}
		in := h.Clone()
		got, lastAbs, err := mat.HessenbergRitzEstimates(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k || len(lastAbs) != k {
			t.Fatalf("H %d (k=%d): %d values, %d estimates", c, k, len(got), len(lastAbs))
		}
		hnorm := h.FrobNorm()
		for i := range vals {
			if d := cmplx.Abs(got[i] - vals[i]); d > 1e-12*hnorm {
				t.Fatalf("H %d (k=%d): value %d = %v, CEig %v (|Δ| = %.3g)", c, k, i, got[i], vals[i], d)
			}
			want := cmplx.Abs(vecs.At(k-1, i))
			if d := math.Abs(lastAbs[i] - want); d > 1e-8*want+1e-13 {
				t.Fatalf("H %d (k=%d): last-row estimate %d = %.17g, CEig %.17g", c, k, i, lastAbs[i], want)
			}
		}
	}
}
