package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX kernels behind cAxpyDot and CAxpy must reproduce the pure-Go
// loops bit for bit: same rounding of every product and sum (no fused
// multiply-add), same element order in the dot's running sum. This battery
// runs both paths through the useAVX switch on inputs chosen to expose a
// fused or reordered operation — lengths across the vector step and its
// tail, sub-slices at odd offsets, zero coefficients, and subnormal, huge
// and non-finite values — and compares results bit for bit, counting any
// two NaNs as equal (Go leaves NaN payloads to instruction order).

// withKernel runs f with the AVX kernels switched on or off, restoring the
// package's choice afterwards.
func withKernel(avx bool, f func()) {
	saved := useAVX
	useAVX = avx
	defer func() { useAVX = saved }()
	f()
}

func skipWithoutAVX(t testing.TB) {
	t.Helper()
	if !useAVX {
		t.Skip("no AVX kernels on this CPU or architecture")
	}
}

func sameCBitsOrNaN(a, b complex128) bool {
	return sameBitsOrNaN(real(a), real(b)) && sameBitsOrNaN(imag(a), imag(b))
}

// kernelValue draws one float64 of the given class.
func kernelValue(rng *rand.Rand, class string) float64 {
	switch class {
	case "subnormal":
		return rng.NormFloat64() * 1e-310
	case "huge":
		return rng.NormFloat64() * 1e300
	case "special":
		return [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}[rng.Intn(7)]
	case "mixed":
		return kernelValue(rng, [...]string{"normal", "subnormal", "huge", "special"}[rng.Intn(4)])
	}
	return rng.NormFloat64()
}

func kernelVector(rng *rand.Rand, n int, class string) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(kernelValue(rng, class), kernelValue(rng, class))
	}
	return v
}

// kernelCoefficients are the axpy coefficients of the battery: generic,
// zero (both signs) and one-sided zeros, and the extreme classes.
func kernelCoefficients(rng *rand.Rand) []complex128 {
	nz := math.Copysign(0, -1)
	return []complex128{
		complex(rng.NormFloat64(), rng.NormFloat64()),
		0,
		complex(nz, nz),
		complex(0, rng.NormFloat64()),
		complex(rng.NormFloat64(), nz),
		complex(1e-310, -3e-311),
		complex(3e300, -2e300),
		complex(math.NaN(), 1),
		complex(1, math.Inf(-1)),
	}
}

var kernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4480, 4481}

// TestKernelsBitIdentical compares cAxpyDot and CAxpy on the AVX and Go
// paths across lengths, offsets, coefficients and value classes.
func TestKernelsBitIdentical(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(19))
	for _, class := range []string{"normal", "subnormal", "huge", "special", "mixed"} {
		for _, n := range kernelLengths {
			// Offsets 0 and 1 move the vectors between the two 16-byte
			// halves of a 32-byte YMM load; 3 shifts them once more.
			for _, off := range []int{0, 1, 3} {
				x := kernelVector(rng, n+off, class)[off:]
				y := kernelVector(rng, n+off+1, class)[off+1:]
				w0 := kernelVector(rng, n+2*off, class)[2*off:]
				for ai, a := range kernelCoefficients(rng) {
					name := fmt.Sprintf("%s/n=%d/off=%d/a%d", class, n, off, ai)
					var goDot, asmDot complex128
					goW, asmW := CCopy(w0), CCopy(w0)
					withKernel(false, func() { goDot = cAxpyDot(a, x, y, goW) })
					withKernel(true, func() { asmDot = cAxpyDot(a, x, y, asmW) })
					if !sameCBitsOrNaN(goDot, asmDot) {
						t.Fatalf("%s: cAxpyDot = %v, Go loop %v", name, asmDot, goDot)
					}
					compareVectors(t, name+": cAxpyDot w", asmW, goW)

					goY, asmY := CCopy(w0), CCopy(w0)
					withKernel(false, func() { CAxpy(a, x, goY) })
					withKernel(true, func() { CAxpy(a, x, asmY) })
					compareVectors(t, name+": CAxpy y", asmY, goY)
				}
			}
		}
	}
}

func compareVectors(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !sameCBitsOrNaN(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v, Go loop %v", what, i, got[i], want[i])
		}
	}
}

// TestKernelsWriteOnlyTheirSlice: a sub-slice's neighbors in the backing
// array stay untouched by the vector loads and stores.
func TestKernelsWriteOnlyTheirSlice(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelLengths[:10] {
		back := kernelVector(rng, n+2, "normal")
		guard := CCopy(back)
		x, y := kernelVector(rng, n, "normal"), kernelVector(rng, n, "normal")
		cAxpyDot(complex(1.5, -0.5), x, y, back[1:n+1])
		CAxpy(complex(-0.25, 2), x, back[1:n+1])
		if back[0] != guard[0] || back[n+1] != guard[n+1] {
			t.Fatalf("n=%d: kernel wrote outside its slice", n)
		}
	}
}

// TestChainBitIdenticalAcrossKernels runs whole MGS chains, Arnoldi-shaped
// (unit-norm links, exact zero coefficients) on both paths.
func TestChainBitIdenticalAcrossKernels(t *testing.T) {
	skipWithoutAVX(t)
	for i, c := range chainCases {
		t.Run(c.name, func(t *testing.T) {
			q, w := c.complexInputs(rand.New(rand.NewSource(int64(300 + i))))
			goW, asmW := CCopy(w), CCopy(w)
			goH, asmH := make([]complex128, len(q)), make([]complex128, len(q))
			withKernel(false, func() { CProjSubChain(q, goW, goH) })
			withKernel(true, func() { CProjSubChain(q, asmW, asmH) })
			for k := range goH {
				if !sameCBits(asmH[k], goH[k]) {
					t.Fatalf("coefficient %d: %v, Go loop %v", k, asmH[k], goH[k])
				}
			}
			compareVectors(t, "w", asmW, goW)
		})
	}
}

// BenchmarkProjSubChain times one Arnoldi-sized MGS pass — 30 unit-norm
// links at 2n = 4480, the complex lane of a d = 60 sweep half-way through
// its basis — on the Go loops and, where the CPU has them, the AVX
// kernels, and reports ns per element (links × length).
//
//	go test -run '^$' -bench '^BenchmarkProjSubChain$' ./internal/mat/
func BenchmarkProjSubChain(b *testing.B) {
	const links, n = 30, 4480
	c := chainCase{links: links, n: n}
	q, w0 := c.complexInputs(rand.New(rand.NewSource(1)))
	w, h := make([]complex128, n), make([]complex128, links)
	avxAvailable := useAVX
	for _, avx := range []bool{false, true} {
		if avx && !avxAvailable {
			continue
		}
		name := "go"
		if avx {
			name = "avx"
		}
		b.Run(name, func(b *testing.B) {
			withKernel(avx, func() {
				for b.Loop() {
					copy(w, w0)
					CProjSubChain(q, w, h)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links*n), "ns/element")
		})
	}
}
