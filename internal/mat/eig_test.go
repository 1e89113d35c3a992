package mat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortComplex sorts eigenvalues by real part, then imaginary part, so
// spectra can be compared set-wise.
func sortComplex(v []complex128) {
	sort.Slice(v, func(i, j int) bool {
		if real(v[i]) != real(v[j]) {
			return real(v[i]) < real(v[j])
		}
		return imag(v[i]) < imag(v[j])
	})
}

func spectraMatch(got, want []complex128, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	g := append([]complex128(nil), got...)
	w := append([]complex128(nil), want...)
	sortComplex(g)
	sortComplex(w)
	// Greedy matching after sort can fail on ties; use full bipartite
	// greedy: for each want, find the closest unused got.
	used := make([]bool, len(g))
	for _, wv := range w {
		best, bi := math.Inf(1), -1
		for i, gv := range g {
			if used[i] {
				continue
			}
			if d := cmplx.Abs(gv - wv); d < best {
				best, bi = d, i
			}
		}
		if bi < 0 || best > tol {
			return false
		}
		used[bi] = true
	}
	return true
}

func TestCHessenbergForm(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{1, 2, 3, 6, 15} {
		a := randCDense(rng, n, n)
		h, q := CHessenberg(a)
		// Similarity: a = Q H Qᴴ.
		if !q.Mul(h).Mul(q.H()).Equalish(a, 1e-10) {
			t.Fatalf("n=%d: QHQᴴ != A", n)
		}
		// Unitarity of Q.
		if !q.H().Mul(q).Equalish(CEye(n), 1e-10) {
			t.Fatalf("n=%d: Q not unitary", n)
		}
		// Hessenberg structure.
		for i := 2; i < n; i++ {
			for j := 0; j < i-1; j++ {
				if h.At(i, j) != 0 {
					t.Fatalf("n=%d: H[%d,%d] = %v != 0", n, i, j, h.At(i, j))
				}
			}
		}
	}
}

func TestCEigDiagonal(t *testing.T) {
	d := NewCDense(3, 3)
	want := []complex128{complex(1, 2), complex(-3, 0), complex(0, -5)}
	for i, v := range want {
		d.Set(i, i, v)
	}
	got, err := CEigValues(d)
	if err != nil {
		t.Fatal(err)
	}
	if !spectraMatch(got, want, 1e-12) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCEigKnown2x2(t *testing.T) {
	// [[0, 1], [-1, 0]] has eigenvalues ±i.
	a := NewCDense(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, -1)
	got, err := CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{complex(0, 1), complex(0, -1)}
	if !spectraMatch(got, want, 1e-12) {
		t.Fatalf("got %v, want ±i", got)
	}
}

func TestEigRealMatrixConjugatePairs(t *testing.T) {
	// Real matrices have spectra closed under conjugation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := randDense(rng, n, n)
		vals, err := EigValues(a)
		if err != nil {
			return false
		}
		conj := make([]complex128, len(vals))
		for i, v := range vals {
			conj[i] = cmplx.Conj(v)
		}
		return spectraMatch(vals, conj, 1e-7*(1+a.FrobNorm()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEigTraceAndDetInvariants(t *testing.T) {
	// Sum of eigenvalues = trace; product = det.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := randDense(rng, n, n)
		vals, err := EigValues(a)
		if err != nil {
			return false
		}
		var sum, prod complex128 = 0, 1
		for _, v := range vals {
			sum += v
			prod *= v
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		lu, err := LUFactor(a)
		var det float64
		if err == nil {
			det = lu.Det()
		}
		scale := 1 + a.FrobNorm()
		if cmplx.Abs(sum-complex(tr, 0)) > 1e-8*scale {
			return false
		}
		if err == nil && cmplx.Abs(prod-complex(det, 0)) > 1e-6*(1+math.Abs(det)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSchurDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 4, 9, 20} {
		a := randCDense(rng, n, n)
		res, err := CSchur(a, true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// A = Z T Zᴴ.
		if !res.Z.Mul(res.T).Mul(res.Z.H()).Equalish(a, 1e-8*(1+a.FrobNorm())) {
			t.Fatalf("n=%d: ZTZᴴ != A", n)
		}
		// Z unitary.
		if !res.Z.H().Mul(res.Z).Equalish(CEye(n), 1e-10) {
			t.Fatalf("n=%d: Z not unitary", n)
		}
		// T upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(res.T.At(i, j)) > 1e-9*(1+a.FrobNorm()) {
					t.Fatalf("n=%d: T[%d,%d] = %v not negligible", n, i, j, res.T.At(i, j))
				}
			}
		}
	}
}

func TestCEigVectorsResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 5, 12} {
		a := randCDense(rng, n, n)
		vals, vecs, err := CEig(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := 0; k < n; k++ {
			v := make([]complex128, n)
			for i := range v {
				v[i] = vecs.At(i, k)
			}
			av := a.MulVec(v)
			CAxpy(-vals[k], v, av) // av ← A v − λ v
			if res := CNorm2(av); res > 1e-7*(1+a.FrobNorm()) {
				t.Fatalf("n=%d: eigenpair %d residual %v", n, k, res)
			}
		}
	}
}

func TestEigCompanionMatrixRoots(t *testing.T) {
	// Companion matrix of z³ − 6z² + 11z − 6 has roots 1, 2, 3.
	a := DenseFromSlice(3, 3, []float64{
		6, -11, 6,
		1, 0, 0,
		0, 1, 0,
	})
	got, err := EigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 2, 3}
	if !spectraMatch(got, want, 1e-8) {
		t.Fatalf("got %v, want 1,2,3", got)
	}
}

func TestHessenbergQREmptyAndTiny(t *testing.T) {
	if _, err := CEigValues(NewCDense(0, 0)); err != nil {
		t.Fatalf("0×0: %v", err)
	}
	one := NewCDense(1, 1)
	one.Set(0, 0, complex(3, 4))
	v, err := CEigValues(one)
	if err != nil || v[0] != complex(3, 4) {
		t.Fatalf("1×1: %v %v", v, err)
	}
}

// TestHessenbergRitzEstimatesAllocatesOnlyOutputs pins the StopEarly
// check's allocation budget: the two returned slices and nothing else.
func TestHessenbergRitzEstimatesAllocatesOnlyOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	h := arnoldiShapedHessenberg(rng, 40)
	work := NewCDense(40, 40)
	allocs := testing.AllocsPerRun(20, func() {
		copy(work.Data, h.Data)
		if _, _, err := HessenbergRitzEstimates(work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("%v allocations per call, want 2", allocs)
	}
}

func TestHessenbergRitzEstimatesTiny(t *testing.T) {
	vals, lastAbs, err := HessenbergRitzEstimates(NewCDense(0, 0))
	if err != nil || len(vals) != 0 || len(lastAbs) != 0 {
		t.Fatalf("0×0: %v %v %v", vals, lastAbs, err)
	}
	one := NewCDense(1, 1)
	one.Set(0, 0, complex(3, 4))
	vals, lastAbs, err = HessenbergRitzEstimates(one)
	if err != nil || vals[0] != complex(3, 4) || lastAbs[0] != 1 {
		t.Fatalf("1×1: %v %v %v", vals, lastAbs, err)
	}
}
