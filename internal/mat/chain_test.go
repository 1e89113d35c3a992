package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The fused MGS chain kernels must reproduce a chain of single-vector
// projections bit for bit: the Arnoldi basis, and through it every
// reported crossing, depends on the exact rounding of each coefficient and
// of the final vector.

// chainCase builds a chain of q vectors and a target w of length n. With
// zeros set, w and the first link live on the leading half of the indices
// and the second (and, for chains of three or more, the third) link on the
// trailing half, so those links are exactly orthogonal to w and take the
// skip branch; later links are dense. With zeroLast set, the final link is
// one of those trailing-half vectors instead.
type chainCase struct {
	name            string
	links, n        int
	zeros, zeroLast bool
}

var chainCases = []chainCase{
	{name: "empty", links: 0, n: 9},
	{name: "one", links: 1, n: 9},
	{name: "two", links: 2, n: 11},
	{name: "sixty-one", links: 61, n: 4483},
	{name: "sixty-one-short", links: 61, n: 7},
	{name: "zero-middle", links: 6, n: 30, zeros: true},
	{name: "zero-last", links: 2, n: 13, zeros: true, zeroLast: true},
	{name: "zero-long", links: 61, n: 4481, zeros: true},
}

// support returns the index range of link k (−1 for w) in case c.
func (c chainCase) support(k int) (lo, hi int) {
	if !c.zeros {
		return 0, c.n
	}
	half := c.n / 2
	switch {
	case k == -1 || k == 0:
		return 0, half
	case k == 1 || k == 2 || (c.zeroLast && k == c.links-1):
		return half, c.n
	}
	return 0, c.n
}

func (c chainCase) complexInputs(rng *rand.Rand) ([][]complex128, []complex128) {
	vec := func(k int) []complex128 {
		v := make([]complex128, c.n)
		lo, hi := c.support(k)
		for i := lo; i < hi; i++ {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// Unit-norm links, as in the Arnoldi basis.
		if k >= 0 {
			if nrm := CNorm2(v); nrm > 0 {
				CScaleVec(complex(1/nrm, 0), v)
			}
		}
		return v
	}
	q := make([][]complex128, c.links)
	for k := range q {
		q[k] = vec(k)
	}
	return q, vec(-1)
}

func (c chainCase) realInputs(rng *rand.Rand) ([][]float64, []float64) {
	vec := func(k int) []float64 {
		v := make([]float64, c.n)
		lo, hi := c.support(k)
		for i := lo; i < hi; i++ {
			v[i] = rng.NormFloat64()
		}
		if k >= 0 {
			if nrm := Norm2(v); nrm > 0 {
				ScaleVec(1/nrm, v)
			}
		}
		return v
	}
	q := make([][]float64, c.links)
	for k := range q {
		q[k] = vec(k)
	}
	return q, vec(-1)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCBits(a, b complex128) bool {
	return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b))
}

func TestCProjSubChainMatchesCProjSub(t *testing.T) {
	for i, c := range chainCases {
		t.Run(c.name, func(t *testing.T) {
			q, w := c.complexInputs(rand.New(rand.NewSource(int64(100 + i))))
			want := CCopy(w)
			wantH := make([]complex128, len(q))
			zeros := 0
			for k, u := range q {
				wantH[k] = CProjSub(u, want)
				if wantH[k] == 0 {
					zeros++
				}
			}
			if c.zeros && zeros == 0 {
				t.Fatal("no link took the zero-coefficient branch")
			}
			got := CCopy(w)
			gotH := make([]complex128, len(q))
			CProjSubChain(q, got, gotH)
			for k := range wantH {
				if !sameCBits(gotH[k], wantH[k]) {
					t.Fatalf("coefficient %d: %v, want %v", k, gotH[k], wantH[k])
				}
			}
			for a := range want {
				if !sameCBits(got[a], want[a]) {
					t.Fatalf("w[%d]: %v, want %v", a, got[a], want[a])
				}
			}
		})
	}
}

func TestProjSubChainMatchesProjSub(t *testing.T) {
	for i, c := range chainCases {
		t.Run(c.name, func(t *testing.T) {
			q, w := c.realInputs(rand.New(rand.NewSource(int64(200 + i))))
			want := append([]float64(nil), w...)
			wantH := make([]float64, len(q))
			zeros := 0
			for k, u := range q {
				wantH[k] = ProjSub(u, want)
				if wantH[k] == 0 {
					zeros++
				}
			}
			if c.zeros && zeros == 0 {
				t.Fatal("no link took the zero-coefficient branch")
			}
			got := append([]float64(nil), w...)
			gotH := make([]float64, len(q))
			ProjSubChain(q, got, gotH)
			for k := range wantH {
				if !sameBits(gotH[k], wantH[k]) {
					t.Fatalf("coefficient %d: %v, want %v", k, gotH[k], wantH[k])
				}
			}
			for a := range want {
				if !sameBits(got[a], want[a]) {
					t.Fatalf("w[%d]: %v, want %v", a, got[a], want[a])
				}
			}
		})
	}
}

func TestProjSubChainCoefficientCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched coefficient slice accepted")
		}
	}()
	CProjSubChain([][]complex128{{1}}, []complex128{1}, nil)
}
