package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// ---- factorization edge cases and numerically nasty inputs ----

func TestLU1x1(t *testing.T) {
	f, err := LUFactor(DenseFromSlice(1, 1, []float64{-4}))
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve([]float64{8})
	if x[0] != -2 {
		t.Fatalf("x = %v", x)
	}
	if f.Det() != -4 {
		t.Fatalf("det = %v", f.Det())
	}
}

func TestLUPermutationParity(t *testing.T) {
	// A permutation matrix: determinant must be the permutation sign.
	a := DenseFromSlice(3, 3, []float64{
		0, 1, 0,
		0, 0, 1,
		1, 0, 0,
	}) // cyclic permutation: even, det = +1
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-1) > 1e-14 {
		t.Fatalf("det = %v, want 1", f.Det())
	}
}

func TestLUIllConditionedStillSolves(t *testing.T) {
	// Hilbert-like matrix: ill conditioned but solvable at n=6.
	n := 6
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1/float64(i+j+1))
		}
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1
	}
	b := a.MulVec(xTrue)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(b)
	for i := range x {
		if math.Abs(x[i]-1) > 1e-6 {
			t.Fatalf("Hilbert solve x[%d] = %v", i, x[i])
		}
	}
}

func TestQRSquareMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := randDense(rng, 5, 5)
	f := QRFactor(a)
	x, err := f.SolveLS(a.MulVec([]float64{1, -2, 3, -4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 3, -4, 5}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("square QR solve x[%d] = %v", i, x[i])
		}
	}
}

func TestQRZeroColumn(t *testing.T) {
	// A zero column must be handled (tau = 0 path) and reported as rank
	// deficient at solve time.
	a := NewDense(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
	}
	_, err := QRFactor(a).SolveLS([]float64{1, 2, 3, 4})
	if err != ErrRankDeficient {
		t.Fatalf("expected ErrRankDeficient, got %v", err)
	}
}

func TestEigJordanBlockDefective(t *testing.T) {
	// Defective matrix (Jordan block): eigenvalues must still come out
	// right even though the eigenvectors are degenerate.
	n := 4
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i+1 < n {
			a.Set(i, i+1, 1)
		}
	}
	vals, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if cmplx.Abs(v-2) > 1e-3 {
			// Jordan blocks split eigenvalues like ε^{1/n}; 1e-3 is the
			// expected cluster radius at n=4 with double precision.
			t.Fatalf("Jordan eigenvalue %v too far from 2", v)
		}
	}
}

func TestEigSymmetricRealSpectrum(t *testing.T) {
	// Symmetric matrices have real spectra: imaginary parts ~ 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		a := randDense(rng, n, n)
		s := a.Add(a.T()).Scale(0.5)
		vals, err := EigValues(s)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if math.Abs(imag(v)) > 1e-7*(1+s.FrobNorm()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEigOrthogonalUnitCircle(t *testing.T) {
	// Eigenvalues of an orthogonal matrix lie on the unit circle.
	rng := rand.New(rand.NewSource(51))
	a := randDense(rng, 6, 6)
	q := QRFactor(a).Q()
	vals, err := EigValues(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
			t.Fatalf("orthogonal eigenvalue %v off the unit circle", v)
		}
	}
}

func TestEigSimilarityInvariance(t *testing.T) {
	// Spectra are invariant under similarity transforms.
	rng := rand.New(rand.NewSource(52))
	n := 7
	a := randCDense(rng, n, n)
	// A well-conditioned transform.
	s := CEye(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.Set(i, j, complex(0.1*rng.NormFloat64(), 0.1*rng.NormFloat64()))
			}
		}
	}
	sinv, err := CInverse(s)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Mul(a).Mul(sinv)
	va, err := CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := CEigValues(b)
	if err != nil {
		t.Fatal(err)
	}
	if !spectraMatch(va, vb, 1e-6*(1+a.FrobNorm())) {
		t.Fatalf("similar matrices with different spectra:\n%v\n%v", va, vb)
	}
}

func TestSVDOrthogonalHasUnitSingularValues(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randDense(rng, 6, 6)
	q := QRFactor(a).Q()
	s, err := SingularValues(q.ToComplex())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if math.Abs(v-1) > 1e-10 {
			t.Fatalf("orthogonal singular value %v", v)
		}
	}
}

func TestSVDScalingProperty(t *testing.T) {
	// σ(c·A) = |c|·σ(A).
	f := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.Abs(c) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := randCDense(rng, 4, 3)
		s1, err := SingularValues(a)
		if err != nil {
			return false
		}
		s2, err := SingularValues(a.Scale(complex(c, 0)))
		if err != nil {
			return false
		}
		for i := range s1 {
			if math.Abs(s2[i]-math.Abs(c)*s1[i]) > 1e-9*(1+math.Abs(c)*s1[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVDWideMatrix(t *testing.T) {
	// m < n path (transposed decomposition).
	rng := rand.New(rand.NewSource(54))
	a := randCDense(rng, 3, 9)
	sv, err := CSVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if sv.U.Rows != 3 || sv.V.Rows != 9 || len(sv.S) != 3 {
		t.Fatalf("wide SVD shapes: U %dx%d V %dx%d S %d",
			sv.U.Rows, sv.U.Cols, sv.V.Rows, sv.V.Cols, len(sv.S))
	}
	if !csvdReconstruct(sv).Equalish(a, 1e-9*(1+a.FrobNorm())) {
		t.Fatal("wide SVD reconstruction failed")
	}
}

func TestGivensZeroesSecondEntry(t *testing.T) {
	cases := [][2]complex128{
		{complex(3, 1), complex(-2, 4)},
		{0, complex(1, 1)},
		{complex(2, 0), 0},
		{complex(1e-300, 0), complex(1e-300, 0)},
	}
	for _, c := range cases {
		g := makeGivens(c[0], c[1])
		// Unitarity: c² + |s|² = 1.
		if math.Abs(g.c*g.c+real(g.s*cmplx.Conj(g.s))-1) > 1e-12 {
			t.Fatalf("rotation not unitary for %v", c)
		}
		// Application zeroes the second entry.
		lo := complex(g.c, 0)*c[0] + g.s*c[1]
		hi := -cmplx.Conj(g.s)*c[0] + complex(g.c, 0)*c[1]
		_ = lo
		if cmplx.Abs(hi) > 1e-12*(cmplx.Abs(c[0])+cmplx.Abs(c[1])+1e-300) {
			t.Fatalf("rotation failed to zero %v: %v", c, hi)
		}
	}
}
