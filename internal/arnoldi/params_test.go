package arnoldi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func TestSingleShiftParamsDefaults(t *testing.T) {
	var p SingleShiftParams
	p.setDefaults()
	if p.NWanted != 5 || p.MaxDim != 60 || p.MaxRestarts != 12 || p.Tol != 1e-9 || p.Seed != 1 {
		t.Fatalf("bad defaults: %+v", p)
	}
	p2 := SingleShiftParams{NWanted: 3, MaxDim: 20, MaxRestarts: 4, Tol: 1e-6, Seed: 9}
	p2.setDefaults()
	if p2.NWanted != 3 || p2.MaxDim != 20 || p2.MaxRestarts != 4 || p2.Tol != 1e-6 || p2.Seed != 9 {
		t.Fatalf("explicit params clobbered: %+v", p2)
	}
}

func TestSingleShiftParamsValidate(t *testing.T) {
	for _, p := range []SingleShiftParams{
		{NWanted: -1},
		{MaxDim: -5},
		{MaxRestarts: -1},
		{Tol: -1e-9},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: negative parameter accepted", p)
		}
		rng := rand.New(rand.NewSource(1))
		inv := newDenseShiftInv(t, randomCMat(rng, 8), 0)
		if _, err := SingleShift(inv, 0.5, p); err == nil {
			t.Errorf("%+v: SingleShift ran with invalid params", p)
		}
	}
	var ok SingleShiftParams
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero params rejected: %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.MaxDim != 60 || c.Tol != 1e-9 || c.Rng == nil {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestRandomStartUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 5, 100} {
		v := RandomStart(rng, n)
		if math.Abs(mat.CNorm2(v)-1) > 1e-12 {
			t.Fatalf("n=%d: norm %v", n, mat.CNorm2(v))
		}
	}
}

func TestStopEarlyTerminatesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 40
	a := randomCMat(rng, n)
	calls := 0
	cfg := Config{
		MaxDim:     30,
		Rng:        rng,
		CheckEvery: 5,
		StopEarly: func(h *mat.CDense, hNext float64, steps int) bool {
			calls++
			return steps >= 10
		},
	}
	fac, err := Run(denseOp{a}, RandomStart(rng, n), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fac.Steps != 10 {
		t.Fatalf("Steps = %d, want early stop at 10", fac.Steps)
	}
	if calls != 2 {
		t.Fatalf("StopEarly called %d times, want 2", calls)
	}
	// The truncated factorization must still satisfy the Arnoldi relation.
	pairs, err := fac.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range pairs {
		x := fac.RitzVector(idx)
		ax := a.MulVec(x)
		mat.CAxpy(-p.Value, x, ax)
		if r := mat.CNorm2(ax); math.Abs(r-p.Residual) > 1e-6*(1+r) {
			t.Fatalf("early-stopped residual estimate off: %g vs %g", p.Residual, r)
		}
	}
}

func TestLargestMagnitudeOnNormalMatrix(t *testing.T) {
	// Diagonal with one dominant entry: must find it almost exactly.
	n := 30
	d := mat.NewCDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, complex(float64(i+1), 0))
	}
	d.Set(n-1, n-1, complex(100, 50))
	rng := rand.New(rand.NewSource(3))
	got, err := LargestMagnitude(denseOp{d}, Config{MaxDim: 12, Rng: rng}, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got-complex(100, 50)) > 1e-6*cmplx.Abs(got) {
		t.Fatalf("LargestMagnitude = %v, want 100+50i", got)
	}
}

func TestSingleShiftRespectsMaxRestarts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 60
	a := randomCMat(rng, n)
	inv := newDenseShiftInv(t, a, complex(0.1, 0.1))
	res, err := SingleShift(inv, 0.5, SingleShiftParams{
		NWanted: 50, MaxDim: 8, MaxRestarts: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts > 2 {
		t.Fatalf("Restarts = %d > MaxRestarts", res.Restarts)
	}
}

func TestSingleShiftOpApplyCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	a := randomCMat(rng, n)
	inv := newDenseShiftInv(t, a, 0)
	res, err := SingleShift(inv, 0.5, SingleShiftParams{NWanted: 3, MaxDim: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OpApplies <= 0 || res.OpApplies > res.Restarts*15 {
		t.Fatalf("implausible OpApplies=%d for %d restarts", res.OpApplies, res.Restarts)
	}
}
