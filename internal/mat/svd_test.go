package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func csvdReconstruct(sv *CSVD) *CDense {
	k := len(sv.S)
	sig := NewCDense(k, k)
	for i, s := range sv.S {
		sig.Set(i, i, complex(s, 0))
	}
	return sv.U.Mul(sig).Mul(sv.V.H())
}

func TestCSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, dims := range [][2]int{{1, 1}, {3, 3}, {5, 2}, {2, 5}, {10, 10}, {30, 8}} {
		m, n := dims[0], dims[1]
		a := randCDense(rng, m, n)
		sv, err := CSVDecompose(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		if !csvdReconstruct(sv).Equalish(a, 1e-9*(1+a.FrobNorm())) {
			t.Fatalf("%dx%d: UΣVᴴ != A", m, n)
		}
		k := len(sv.S)
		if !sv.U.H().Mul(sv.U).Equalish(CEye(k), 1e-9) {
			t.Fatalf("%dx%d: U not orthonormal", m, n)
		}
		if !sv.V.H().Mul(sv.V).Equalish(CEye(k), 1e-9) {
			t.Fatalf("%dx%d: V not orthonormal", m, n)
		}
		for i := 1; i < k; i++ {
			if sv.S[i] > sv.S[i-1]+1e-12 {
				t.Fatalf("%dx%d: singular values not sorted: %v", m, n, sv.S)
			}
		}
		for _, s := range sv.S {
			if s < 0 {
				t.Fatalf("%dx%d: negative singular value", m, n)
			}
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) padded: singular values are 3, 2.
	a := NewCDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	s, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Fatalf("got %v, want [3 2]", s)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: second singular value must be ~0 and U still orthonormal.
	a := NewCDense(3, 2)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, complex(float64(i+1), 0))
		a.Set(i, 1, complex(2*float64(i+1), 0))
	}
	sv, err := CSVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if sv.S[1] > 1e-10 {
		t.Fatalf("rank-1 matrix second singular value %v", sv.S[1])
	}
	if !sv.U.H().Mul(sv.U).Equalish(CEye(2), 1e-9) {
		t.Fatal("U not orthonormal after zero-σ completion")
	}
}

func TestSVDSingularValuesInvariantUnderUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := randCDense(rng, n, n)
		s1, err := SingularValues(a)
		if err != nil {
			return false
		}
		// Multiply by a unitary from a QR of a random complex matrix:
		// use Hessenberg Q of a random matrix as a convenient unitary.
		_, q := CHessenberg(randCDense(rng, n, n))
		s2, err := SingularValues(q.Mul(a))
		if err != nil {
			return false
		}
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-8*(1+s1[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDRealFactorsAreReal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := randDense(rng, 6, 4)
	sv, err := SVDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	k := len(sv.S)
	sig := NewDense(k, k)
	for i, s := range sv.S {
		sig.Set(i, i, s)
	}
	if !sv.U.Mul(sig).Mul(sv.V.T()).Equalish(a, 1e-9*(1+a.FrobNorm())) {
		t.Fatal("real SVD reconstruction failed")
	}
	if !sv.U.T().Mul(sv.U).Equalish(Eye(k), 1e-9) {
		t.Fatal("real U not orthonormal")
	}
}

func TestNorm2MatAndCond2(t *testing.T) {
	a := DenseFromSlice(2, 2, []float64{4, 0, 0, 0.5})
	n2, err := Norm2Mat(a)
	if err != nil || math.Abs(n2-4) > 1e-12 {
		t.Fatalf("Norm2Mat = %v (%v), want 4", n2, err)
	}
}

func TestMaxSingularValueEmpty(t *testing.T) {
	s, err := MaxSingularValue(NewCDense(0, 0))
	if err != nil || s != 0 {
		t.Fatalf("MaxSingularValue(empty) = %v (%v)", s, err)
	}
}
