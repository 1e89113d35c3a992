package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 3, 5, 10, 40} {
		a := randDense(rng, n, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := a.MulVec(xTrue)
		f, err := LUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := f.Solve(b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9*(1+math.Abs(xTrue[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := DenseFromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := LUFactor(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestLUDet(t *testing.T) {
	a := DenseFromSlice(2, 2, []float64{1, 2, 3, 4})
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-(-2)) > 1e-14 {
		t.Fatalf("Det = %v, want -2", d)
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randDense(rng, n, n)
		// Diagonally dominate to keep well conditioned.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).Equalish(Eye(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 8, 30} {
		a := randCDense(rng, n, n)
		xTrue := make([]complex128, n)
		for i := range xTrue {
			xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := a.MulVec(xTrue)
		f, err := CLUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := f.Solve(b)
		for i := range x {
			if cmplx.Abs(x[i]-xTrue[i]) > 1e-9*(1+cmplx.Abs(xTrue[i])) {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCLUSolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 7
	a := randCDense(rng, n, n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f, err := CLUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Solve(b)
	got := append([]complex128(nil), b...)
	f.SolveIntoScratch(got, got, make([]complex128, n)) // aliased
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("aliased SolveIntoScratch mismatch at %d", i)
		}
	}
}

func TestCInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := randCDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+complex(float64(2*n), 0))
		}
		inv, err := CInverse(a)
		if err != nil {
			return false
		}
		return a.Mul(inv).Equalish(CEye(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCLUDet(t *testing.T) {
	// det of diag(2i, 3) = 6i.
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(0, 2))
	a.Set(1, 1, 3)
	f, err := CLUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); cmplx.Abs(d-complex(0, 6)) > 1e-14 {
		t.Fatalf("Det = %v, want 6i", d)
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	if _, err := CLUFactor(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}
