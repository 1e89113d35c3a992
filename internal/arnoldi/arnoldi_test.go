package arnoldi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// denseOp wraps a dense complex matrix as an Operator.
type denseOp struct{ m *mat.CDense }

func (d denseOp) Dim() int { return d.m.Rows }
func (d denseOp) Apply(y, x []complex128) error {
	copy(y, d.m.MulVec(x))
	return nil
}

// denseShiftInv is a dense (A − θI)⁻¹ used as a reference ShiftInverter.
type denseShiftInv struct {
	f       *mat.CLU
	theta   complex128
	n       int
	scratch []complex128
}

func newDenseShiftInv(t *testing.T, a *mat.CDense, theta complex128) *denseShiftInv {
	t.Helper()
	s := a.Clone()
	for i := 0; i < a.Rows; i++ {
		s.Set(i, i, s.At(i, i)-theta)
	}
	f, err := mat.CLUFactor(s)
	if err != nil {
		t.Fatal(err)
	}
	return &denseShiftInv{f: f, theta: theta, n: a.Rows, scratch: make([]complex128, a.Rows)}
}

func (d *denseShiftInv) Dim() int          { return d.n }
func (d *denseShiftInv) Theta() complex128 { return d.theta }
func (d *denseShiftInv) Apply(y, x []complex128) error {
	d.f.SolveIntoScratch(y, x, d.scratch)
	return nil
}

func randomCMat(rng *rand.Rand, n int) *mat.CDense {
	a := mat.NewCDense(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func TestArnoldiRelationAndOrthonormality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 30
	a := randomCMat(rng, n)
	op := denseOp{a}
	cfg := Config{MaxDim: 12, Rng: rng}
	fac, err := Run(op, RandomStart(rng, n), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := fac.Steps
	if k != 12 {
		t.Fatalf("Steps = %d, want 12", k)
	}
	// Orthonormality.
	for i := 0; i <= k; i++ {
		for j := 0; j <= k; j++ {
			if i >= len(fac.V) || j >= len(fac.V) {
				continue
			}
			d := mat.CDot(fac.V[i], fac.V[j])
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(d-want) > 1e-10 {
				t.Fatalf("V not orthonormal at (%d,%d): %v", i, j, d)
			}
		}
	}
	// Arnoldi relation A·v_j = Σ_i h_ij v_i + h_{j+1,j} v_{j+1} for j<k-1,
	// and with HNext for the last column.
	for j := 0; j < k; j++ {
		av := a.MulVec(fac.V[j])
		for i := 0; i < k; i++ {
			mat.CAxpy(-fac.H.At(i, j), fac.V[i], av)
		}
		if j < k-1 {
			// Residual must vanish (the H subdiagonal term).
			if r := mat.CNorm2(av); r > 1e-9*(1+a.FrobNorm()) {
				t.Fatalf("Arnoldi relation violated in column %d: %g", j, r)
			}
		} else {
			if len(fac.V) > k {
				mat.CAxpy(-complex(fac.HNext, 0), fac.V[k], av)
			}
			if r := mat.CNorm2(av); r > 1e-9*(1+a.FrobNorm()) {
				t.Fatalf("Arnoldi relation violated in last column: %g", r)
			}
		}
	}
}

func TestFullDimensionRecoverASpectrum(t *testing.T) {
	// d = n: Ritz values must be the exact eigenvalues.
	rng := rand.New(rand.NewSource(2))
	n := 10
	a := randomCMat(rng, n)
	fac, err := Run(denseOp{a}, RandomStart(rng, n), nil, Config{MaxDim: n, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fac.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mat.CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, len(pairs))
	for i, p := range pairs {
		got[i] = p.Value
	}
	sortC := func(v []complex128) {
		sort.Slice(v, func(i, j int) bool {
			if real(v[i]) != real(v[j]) {
				return real(v[i]) < real(v[j])
			}
			return imag(v[i]) < imag(v[j])
		})
	}
	sortC(got)
	sortC(want)
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-7*(1+cmplx.Abs(want[i])) {
			t.Fatalf("Ritz %v vs eig %v", got[i], want[i])
		}
	}
}

func TestRitzResidualEstimateIsAccurate(t *testing.T) {
	// The cheap |h_{d+1,d} y_d| estimate must match the true residual
	// ‖A x − μ x‖ for each Ritz pair.
	rng := rand.New(rand.NewSource(3))
	n := 40
	a := randomCMat(rng, n)
	fac, err := Run(denseOp{a}, RandomStart(rng, n), nil, Config{MaxDim: 15, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fac.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range pairs {
		x := fac.RitzVector(idx)
		ax := a.MulVec(x)
		mat.CAxpy(-p.Value, x, ax)
		truth := mat.CNorm2(ax)
		if math.Abs(truth-p.Residual) > 1e-6*(1+truth) {
			t.Fatalf("residual estimate %g, true %g", p.Residual, truth)
		}
	}
}

func TestDeflationLockedDirectionsExcluded(t *testing.T) {
	// Lock an exact eigenvector; the restarted process must not
	// re-converge to its eigenvalue.
	rng := rand.New(rand.NewSource(4))
	n := 8
	d := mat.NewCDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, complex(float64(i+1), 0))
	}
	// Eigenvector of eigenvalue 1 is e_0.
	locked := [][]complex128{make([]complex128, n)}
	locked[0][0] = 1
	fac, err := Run(denseOp{d}, RandomStart(rng, n), locked, Config{MaxDim: n - 1, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fac.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if cmplx.Abs(p.Value-1) < 1e-6 {
			t.Fatalf("deflated eigenvalue 1 reappeared: %v", p.Value)
		}
	}
}

func TestBreakdownOnInvariantSubspace(t *testing.T) {
	// Start vector inside a 2-dimensional invariant subspace: the process
	// must stop early and flag Invariant with exact Ritz values.
	n := 6
	d := mat.NewCDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, complex(float64(i+1), 0))
	}
	start := make([]complex128, n)
	start[0] = 1
	start[1] = 1
	fac, err := Run(denseOp{d}, start, nil, Config{MaxDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !fac.Invariant || fac.Steps != 2 {
		t.Fatalf("Invariant=%v Steps=%d, want true/2", fac.Invariant, fac.Steps)
	}
	pairs, err := fac.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Residual != 0 {
			t.Fatalf("invariant Ritz pair with nonzero residual")
		}
		if cmplx.Abs(p.Value-1) > 1e-10 && cmplx.Abs(p.Value-2) > 1e-10 {
			t.Fatalf("unexpected Ritz value %v", p.Value)
		}
	}
}

func TestFullyDeflatedStart(t *testing.T) {
	n := 3
	locked := make([][]complex128, n)
	for i := range locked {
		locked[i] = make([]complex128, n)
		locked[i][i] = 1
	}
	_, err := Run(denseOp{mat.CEye(n)}, []complex128{1, 1, 1}, locked, Config{MaxDim: 2})
	if err != ErrBreakdownEmpty {
		t.Fatalf("expected ErrBreakdownEmpty, got %v", err)
	}
}

func TestLargestMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50
	a := randomCMat(rng, n)
	want, err := mat.CEigValues(a)
	if err != nil {
		t.Fatal(err)
	}
	var wantMax float64
	for _, v := range want {
		if m := cmplx.Abs(v); m > wantMax {
			wantMax = m
		}
	}
	got, err := LargestMagnitude(denseOp{a}, Config{MaxDim: 25, Rng: rng}, 8, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(got)-wantMax) > 1e-5*wantMax {
		t.Fatalf("LargestMagnitude |λ| = %g, want %g", cmplx.Abs(got), wantMax)
	}
}

// denseRealShiftInv is a dense (A − τI)⁻¹ for a real A and real τ, the
// reference RealShiftInverter.
type denseRealShiftInv struct {
	a   *mat.Dense
	f   *mat.LU
	tau float64
}

func newDenseRealShiftInv(t *testing.T, a *mat.Dense, tau float64) *denseRealShiftInv {
	t.Helper()
	s := a.Clone()
	for i := 0; i < a.Rows; i++ {
		s.Set(i, i, s.At(i, i)-tau)
	}
	f, err := mat.LUFactor(s)
	if err != nil {
		t.Fatal(err)
	}
	return &denseRealShiftInv{a: a, f: f, tau: tau}
}

func (d *denseRealShiftInv) Dim() int          { return d.a.Rows }
func (d *denseRealShiftInv) Theta() complex128 { return complex(d.tau, 0) }
func (d *denseRealShiftInv) Apply(y, x []float64) error {
	copy(y, d.f.Solve(x))
	return nil
}

// shiftInputs lists the certified-disk problems a test runs: a complex
// matrix through the complex lane, or a real matrix (with conjugate
// eigenvalue pairs) at a real shift through both lanes — the complex lane
// on the promoted matrix and the real lane on the matrix itself.
type shiftInput struct {
	name  string
	a     *mat.CDense // dense reference operator
	theta complex128
	solve func(rho0 float64, params SingleShiftParams) (*SingleShiftResult, error)
}

func complexInput(t *testing.T, a *mat.CDense, theta complex128) []shiftInput {
	inv := newDenseShiftInv(t, a, theta)
	return []shiftInput{{"complex", a, theta, func(rho0 float64, p SingleShiftParams) (*SingleShiftResult, error) {
		return SingleShift(inv, rho0, p)
	}}}
}

func realInputs(t *testing.T, a *mat.Dense, tau float64) []shiftInput {
	ac := a.ToComplex()
	cinv := newDenseShiftInv(t, ac, complex(tau, 0))
	rinv := newDenseRealShiftInv(t, a, tau)
	return []shiftInput{
		{"real-matrix/complex-lane", ac, complex(tau, 0), func(rho0 float64, p SingleShiftParams) (*SingleShiftResult, error) {
			return SingleShift(cinv, rho0, p)
		}},
		{"real-matrix/real-lane", ac, complex(tau, 0), func(rho0 float64, p SingleShiftParams) (*SingleShiftResult, error) {
			return SingleShiftReal(rinv, rho0, p)
		}},
	}
}

// randomRealMat is a dense real nonsymmetric matrix: its spectrum holds
// both real eigenvalues and conjugate pairs.
func randomRealMat(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// rotationBlocks is a real block-diagonal matrix with one 2×2 block
// [[σ, ω], [−ω, σ]] per eigenvalue pair σ ± jω.
func rotationBlocks(pairs []complex128) *mat.Dense {
	a := mat.NewDense(2*len(pairs), 2*len(pairs))
	for k, z := range pairs {
		i := 2 * k
		a.Set(i, i, real(z))
		a.Set(i+1, i+1, real(z))
		a.Set(i, i+1, imag(z))
		a.Set(i+1, i, -imag(z))
	}
	return a
}

// checkCertifiedDisk asserts the S-operator contract against the dense
// eigenvalues of in.a: every eigenvalue strictly inside the certified
// radius is returned (completeness), and every returned value is an
// eigenvalue (soundness).
func checkCertifiedDisk(t *testing.T, in shiftInput, res *SingleShiftResult) {
	t.Helper()
	all, _, err := mat.CEig(in.a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range all {
		if cmplx.Abs(v-in.theta) >= res.Radius {
			continue
		}
		found := false
		for _, g := range res.Eigenvalues {
			if cmplx.Abs(g-v) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("true eigenvalue %v (dist %g) inside certified disk ρ=%g missing",
				v, cmplx.Abs(v-in.theta), res.Radius)
		}
	}
	for _, g := range res.Eigenvalues {
		best := math.Inf(1)
		for _, v := range all {
			if d := cmplx.Abs(g - v); d < best {
				best = d
			}
		}
		if best > 1e-6 {
			t.Fatalf("returned eigenvalue %v is not in the spectrum (dist %g)", g, best)
		}
	}
}

func TestSingleShiftFindsClosestEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	inputs := complexInput(t, randomCMat(rng, 40), complex(0.3, -0.2))
	inputs = append(inputs, realInputs(t, randomRealMat(rng, 40), 0.3)...)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			res, err := in.solve(0.5, SingleShiftParams{NWanted: 4, MaxDim: 25, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			checkCertifiedDisk(t, in, res)
			if len(res.Eigenvalues) == 0 {
				t.Fatal("no eigenvalues returned for a dense random matrix")
			}
		})
	}
}

func TestSingleShiftRadiusShrinksWithManyEigenvalues(t *testing.T) {
	// 100 eigenvalues uniformly in a ring around the shift: asking for 4
	// must shrink the radius below the initial one. The real input rings
	// the shift with 50 conjugate pairs.
	n := 100
	d := mat.NewCDense(n, n)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < n; i++ {
		ang := rng.Float64() * 2 * math.Pi
		r := 0.1 + 0.9*rng.Float64()
		d.Set(i, i, cmplx.Rect(r, ang))
	}
	pairs := make([]complex128, n/2)
	for i := range pairs {
		pairs[i] = cmplx.Rect(0.1+0.9*rng.Float64(), rng.Float64()*math.Pi)
	}
	inputs := append(complexInput(t, d, 0), realInputs(t, rotationBlocks(pairs), 0)...)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			res, err := in.solve(1.0, SingleShiftParams{NWanted: 4, MaxDim: 30, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Radius >= 1.0 {
				t.Fatalf("radius %g did not shrink below 1.0 with 100 enclosed eigenvalues", res.Radius)
			}
			if len(res.Eigenvalues) < 4 {
				t.Fatalf("returned %d eigenvalues, want ≥ 4", len(res.Eigenvalues))
			}
			checkCertifiedDisk(t, in, res)
		})
	}
}

func TestSingleShiftEmptyDisk(t *testing.T) {
	// Spectrum far away from the shift: the result must be empty and the
	// certified radius must not reach the nearest eigenvalue.
	n := 20
	d := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 10+float64(i))
	}
	for _, in := range append(complexInput(t, d.ToComplex(), 0), realInputs(t, d, 0)...) {
		t.Run(in.name, func(t *testing.T) {
			res, err := in.solve(1.0, SingleShiftParams{NWanted: 4, MaxDim: 10, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.Eigenvalues {
				if cmplx.Abs(g) < 10-1e-6 {
					t.Fatalf("phantom eigenvalue %v", g)
				}
			}
			if res.Radius < 1.0 {
				t.Fatalf("radius %g shrank although the disk is empty", res.Radius)
			}
		})
	}
}

func TestSingleShiftExhaustsSmallSpectrum(t *testing.T) {
	// n smaller than the Krylov budget: everything converges; the radius
	// should certify the full spectrum (Exhausted or large radius). The
	// real input holds three conjugate pairs.
	n := 6
	d := mat.NewCDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, complex(float64(i), float64(i)))
	}
	inputs := complexInput(t, d, complex(-1, -1))
	inputs = append(inputs, realInputs(t, rotationBlocks([]complex128{1 + 1i, 2 + 3i, 4 + 0.5i}), -1)...)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			res, err := in.solve(20, SingleShiftParams{NWanted: 10, MaxDim: 12, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Eigenvalues) != n {
				t.Fatalf("returned %d eigenvalues, want %d", len(res.Eigenvalues), n)
			}
			checkCertifiedDisk(t, in, res)
		})
	}
}

func TestArnoldiBasisOrthonormalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		dim := 3 + rng.Intn(7)
		a := randomCMat(rng, n)
		fac, err := Run(denseOp{a}, RandomStart(rng, n), nil, Config{MaxDim: dim, Rng: rng})
		if err != nil {
			return false
		}
		for i := range fac.V {
			for j := range fac.V {
				d := mat.CDot(fac.V[i], fac.V[j])
				want := complex128(0)
				if i == j {
					want = 1
				}
				if cmplx.Abs(d-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
