package hamiltonian

import (
	"math/rand"
	"testing"
)

// Allocation regressions for the hot operator paths. Seed numbers
// (pre-packed kernels, PR 1 baseline): Op.Apply allocated 3 slices per
// call (t, wt ∈ C^{2p}, u ∈ C^{2n}) and ShiftOp.Apply 1 (the CLU
// permutation gather buffer) — about 30.5k allocs and ~199 MB per Fig. 6
// Case-5 solve. All must now be allocation-free in steady state: Op.Apply
// draws its workspace from a sync.Pool, and each ShiftOp/HalfShiftOp
// allocates all its apply scratch with its factor, once per shift. The
// per-shift cost (factor plus scratch) is sized by BenchmarkShiftInvert.

func TestOpApplyZeroAllocs(t *testing.T) {
	m := testModel(t, 11, 4, 24, 0.95)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := randCVec(rng, op.Dim())
	y := make([]complex128, op.Dim())
	op.Apply(y, x) // warm the workspace pool and the packed-kernel cache
	if raceEnabled {
		// The race runtime drops sync.Pool items at random, so Apply
		// allocates its workspace anew; the plain build checks this.
		t.Skip("sync.Pool does not retain items under -race")
	}
	if avg := testing.AllocsPerRun(100, func() { op.Apply(y, x) }); avg != 0 {
		t.Fatalf("Op.Apply allocates %.1f objects per call, want 0", avg)
	}
}

func TestShiftOpApplyZeroAllocs(t *testing.T) {
	m := testModel(t, 12, 4, 24, 0.95)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	so, err := op.ShiftInvert(complex(0, 0.5*m.MaxPoleMagnitude()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := randCVec(rng, op.Dim())
	y := make([]complex128, op.Dim())
	if err := so.Apply(y, x); err != nil { // warm the CLU gather buffer
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := so.Apply(y, x); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ShiftOp.Apply allocates %.1f objects per call, want 0", avg)
	}

	// The half lane: HalfShiftOp.Apply and ApplyBase run on the scratch
	// the operator allocated with its factor.
	rm := reciprocalModel(t, 13, 4, 24, 0.95)
	hop, err := New(rm, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if !hop.HalfPath() {
		t.Fatal("half path not engaged")
	}
	w := 0.5 * rm.MaxPoleMagnitude()
	hso, err := hop.ShiftInvertHalf(complex(-(w * w), 0))
	if err != nil {
		t.Fatal(err)
	}
	xr := randRVec(rng, hop.N)
	yr := make([]float64, hop.N)
	for _, c := range []struct {
		name  string
		apply func(y, x []float64) error
	}{{"Apply", hso.Apply}, {"ApplyBase", hso.ApplyBase}} {
		name, apply := c.name, c.apply
		if err := apply(yr, xr); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := apply(yr, xr); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("HalfShiftOp.%s allocates %.1f objects per call, want 0", name, avg)
		}
	}
}
