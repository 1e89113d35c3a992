package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// bitidentCase is one input of the bit-identity battery.
type bitidentCase struct {
	name string
	a    *CDense
}

// bitidentSizes covers the degenerate sizes, small odd ones and Arnoldi's
// full d = 60.
var bitidentSizes = []int{0, 1, 2, 3, 4, 7, 12, 20, 33, 60}

// bitidentInputs builds the seeded battery: for every size, each input
// family with several seeds, plus the fixed structured inputs.
func bitidentInputs() []bitidentCase {
	var cases []bitidentCase
	families := []struct {
		name string
		make func(rng *rand.Rand, n int) *CDense
	}{
		{"general", func(rng *rand.Rand, n int) *CDense { return randCDense(rng, n, n) }},
		{"arnoldi-hessenberg", arnoldiShapedHessenberg},
		{"real", func(rng *rand.Rand, n int) *CDense { return randDense(rng, n, n).ToComplex() }},
		{"real-hessenberg", func(rng *rand.Rand, n int) *CDense {
			h := arnoldiShapedHessenberg(rng, n)
			for i := range h.Data {
				h.Data[i] = complex(real(h.Data[i]), 0)
			}
			return h
		}},
		{"diagonal", func(rng *rand.Rand, n int) *CDense {
			d := NewCDense(n, n)
			for i := 0; i < n; i++ {
				d.Set(i, i, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			return d
		}},
		{"upper-triangular", func(rng *rand.Rand, n int) *CDense {
			a := randCDense(rng, n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					a.Set(i, j, 0)
				}
			}
			return a
		}},
		{"lower-triangular", func(rng *rand.Rand, n int) *CDense {
			a := randCDense(rng, n, n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					a.Set(i, j, 0)
				}
			}
			return a
		}},
	}
	const seedsPerSize = 8
	for _, f := range families {
		for _, n := range bitidentSizes {
			for seed := 0; seed < seedsPerSize; seed++ {
				rng := rand.New(rand.NewSource(int64(1000*n + seed)))
				cases = append(cases, bitidentCase{fmt.Sprintf("%s/n=%d/seed=%d", f.name, n, seed), f.make(rng, n)})
			}
		}
	}
	for _, n := range bitidentSizes {
		cases = append(cases,
			bitidentCase{fmt.Sprintf("jordan/n=%d", n), jordanBlock(n, complex(2, -1))},
			bitidentCase{fmt.Sprintf("cyclic-shift/n=%d", n), cyclicShift(n)})
	}
	return cases
}

// arnoldiShapedHessenberg is upper Hessenberg with a real positive
// subdiagonal, the shape of Arnoldi's projected matrix.
func arnoldiShapedHessenberg(rng *rand.Rand, n int) *CDense {
	h := NewCDense(n, n)
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			if j == i-1 {
				h.Set(i, j, complex(0.1+rng.Float64(), 0))
			} else {
				h.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return h
}

// jordanBlock is the n×n Jordan block for lambda.
func jordanBlock(n int, lambda complex128) *CDense {
	j := NewCDense(n, n)
	for i := 0; i < n; i++ {
		j.Set(i, i, lambda)
		if i+1 < n {
			j.Set(i, i+1, 1)
		}
	}
	return j
}

// cyclicShift is the cyclic permutation matrix: its trailing 2×2 gives the
// Wilkinson shift 0, on which QR makes no progress until the exceptional
// shift breaks the stagnation.
func cyclicShift(n int) *CDense {
	p := NewCDense(n, n)
	for i := 0; i < n; i++ {
		p.Set((i+1)%n, i, 1)
	}
	return p
}

func sameMatrixBits(a, b *CDense) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && sameSliceBits(a.Data, b.Data)
}

// sameSliceBits compares bit for bit, except that any two NaNs match: Go
// leaves the sign and payload of a NaN to the instruction order the
// compiler picks (a commutative add may swap its operands), and defective
// inputs such as large Jordan blocks do overflow to NaN eigenvectors.
func sameSliceBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBitsOrNaN(real(a[i]), real(b[i])) || !sameBitsOrNaN(imag(a[i]), imag(b[i])) {
			return false
		}
	}
	return true
}

func sameBitsOrNaN(a, b float64) bool {
	return sameBits(a, b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestSchurKernelsBitIdenticalToReference holds CHessenberg, CSchur (with
// and without Z) and CEig to the column-walking reference kernels bit for
// bit: the rewrite changed loop nesting and layout, not the operations or
// their order.
func TestSchurKernelsBitIdenticalToReference(t *testing.T) {
	cases := bitidentInputs()
	exceptional := refExceptionalShifts
	if len(cases) < 500 {
		t.Fatalf("battery has %d inputs, want at least 500", len(cases))
	}
	for _, c := range cases {
		in := c.a.Clone()
		wh, wq := refCHessenberg(c.a)
		gh, gq := CHessenberg(c.a)
		if !sameMatrixBits(gh, wh) || !sameMatrixBits(gq, wq) {
			t.Fatalf("%s: CHessenberg differs from the reference", c.name)
		}
		for _, wantZ := range []bool{true, false} {
			want, werr := refCSchur(c.a, wantZ)
			got, gerr := CSchur(c.a, wantZ)
			if werr != gerr {
				t.Fatalf("%s: CSchur(wantZ=%v) error %v, reference %v", c.name, wantZ, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !sameMatrixBits(got.T, want.T) || !sameSliceBits(got.Values, want.Values) {
				t.Fatalf("%s: CSchur(wantZ=%v) T or values differ from the reference", c.name, wantZ)
			}
			// Without Z the reference still accumulated Q; only the
			// accumulating call has a Z to compare.
			if wantZ && !sameMatrixBits(got.Z, want.Z) {
				t.Fatalf("%s: CSchur Z differs from the reference", c.name)
			}
			if !wantZ && got.Z != nil {
				t.Fatalf("%s: CSchur(wantZ=false) returned a Z", c.name)
			}
		}
		wv, wvec, werr := refCEig(c.a)
		gv, gvec, gerr := CEig(c.a)
		if werr != gerr {
			t.Fatalf("%s: CEig error %v, reference %v", c.name, gerr, werr)
		}
		if werr == nil && (!sameSliceBits(gv, wv) || !sameMatrixBits(gvec, wvec)) {
			t.Fatalf("%s: CEig values or vectors differ from the reference", c.name)
		}
		if !sameMatrixBits(c.a, in) {
			t.Fatalf("%s: input modified", c.name)
		}
	}
	// The cyclic-shift inputs must reach the iter%12 exceptional shift, or
	// the battery does not cover that branch.
	if refExceptionalShifts == exceptional {
		t.Fatal("no input took the exceptional shift")
	}
}
