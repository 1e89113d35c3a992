package mat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// The real kernels: Dot, Axpy and axpyDot (the real MGS chain) and
// MulVecTrans (the half path's V·x).

func realKernelVector(rng *rand.Rand, n int, class string) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelValue(rng, class)
	}
	return v
}

// realKernelCoefficients are the real axpy coefficients: generic, both
// zeros, and the extreme classes.
func realKernelCoefficients(rng *rand.Rand) []float64 {
	return []float64{rng.NormFloat64(), 0, math.Copysign(0, -1), 1e-310, -3e300, math.NaN(), math.Inf(-1)}
}

var realKernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2240, 2241}

func compareRealVectors(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, Go loop %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBitsOrNaN(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v, Go loop %v", what, i, got[i], want[i])
		}
	}
}

// TestRealKernelsBitIdentical compares axpyDot, Axpy and Dot on the AVX
// and Go paths across lengths, offsets, coefficients and value classes.
func TestRealKernelsBitIdentical(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(20))
	for _, class := range []string{"normal", "subnormal", "huge", "special", "mixed"} {
		for _, n := range realKernelLengths {
			// Offsets 1 and 3 move the vectors off the 32-byte YMM grid.
			for _, off := range []int{0, 1, 3} {
				x := realKernelVector(rng, n+off, class)[off:]
				y := realKernelVector(rng, n+off+1, class)[off+1:]
				w0 := realKernelVector(rng, n+2*off, class)[2*off:]
				name := fmt.Sprintf("%s/n=%d/off=%d", class, n, off)
				var goDot, asmDot float64
				withKernel(false, func() { goDot = Dot(x, y) })
				withKernel(true, func() { asmDot = Dot(x, y) })
				if !sameBitsOrNaN(goDot, asmDot) {
					t.Fatalf("%s: Dot = %v, Go loop %v", name, asmDot, goDot)
				}
				for ai, a := range realKernelCoefficients(rng) {
					name := fmt.Sprintf("%s/a%d", name, ai)
					goW := append([]float64(nil), w0...)
					asmW := append([]float64(nil), w0...)
					withKernel(false, func() { goDot = axpyDot(a, x, y, goW) })
					withKernel(true, func() { asmDot = axpyDot(a, x, y, asmW) })
					if !sameBitsOrNaN(goDot, asmDot) {
						t.Fatalf("%s: axpyDot = %v, Go loop %v", name, asmDot, goDot)
					}
					compareRealVectors(t, name+": axpyDot w", asmW, goW)

					goY := append([]float64(nil), w0...)
					asmY := append([]float64(nil), w0...)
					withKernel(false, func() { Axpy(a, x, goY) })
					withKernel(true, func() { Axpy(a, x, asmY) })
					compareRealVectors(t, name+": Axpy y", asmY, goY)
				}
			}
		}
	}
}

// TestRealChainBitIdenticalAcrossKernels runs whole real MGS chains on
// both paths.
func TestRealChainBitIdenticalAcrossKernels(t *testing.T) {
	skipWithoutAVX(t)
	cases := append(slices.Clip(chainCases), chainCase{name: "sixty-one-half-path", links: 61, n: 2241},
		chainCase{name: "zero-half-path", links: 30, n: 2240, zeros: true})
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, w := c.realInputs(rand.New(rand.NewSource(int64(400 + i))))
			goW := append([]float64(nil), w...)
			asmW := append([]float64(nil), w...)
			goH, asmH := make([]float64, len(q)), make([]float64, len(q))
			withKernel(false, func() { ProjSubChain(q, goW, goH) })
			withKernel(true, func() { ProjSubChain(q, asmW, asmH) })
			compareRealVectors(t, "h", asmH, goH)
			compareRealVectors(t, "w", asmW, goW)
		})
	}
}

// TestMulVecTransBitIdentical compares MulVecTrans on the AVX and Go
// paths, and the Go path with the plain loop it replaced, across column
// counts on both sides of the 16- and 32-column chunks, row counts and
// offsets.
func TestMulVecTransBitIdentical(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(21))
	for _, class := range []string{"normal", "subnormal", "huge", "special", "mixed"} {
		for _, q := range []int{1, 3, 4, 15, 16, 17, 32, 33, 112, 166} {
			for _, n := range []int{0, 1, 5, 2240} {
				for _, off := range []int{0, 1, 3} {
					name := fmt.Sprintf("%s/q=%d/n=%d/off=%d", class, q, n, off)
					a := realKernelVector(rng, n*q+off, class)[off:]
					x := realKernelVector(rng, n+2*off, class)[2*off:]
					want := make([]float64, q)
					for j := range n {
						for i := range want {
							want[i] += a[j*q+i] * x[j]
						}
					}
					goT := realKernelVector(rng, q+off, "special")[off:]
					asmT := realKernelVector(rng, q+off, "special")[off:]
					withKernel(false, func() { MulVecTrans(goT, a, x) })
					withKernel(true, func() { MulVecTrans(asmT, a, x) })
					compareRealVectors(t, name+": Go path", goT, want)
					compareRealVectors(t, name+": t", asmT, goT)
				}
			}
		}
	}
}

// TestRotationsBitIdentical compares rotateRows and rotateColumnPair on the
// AVX and Go paths: rows of 0–9, 60 and 61 elements, each with random
// rotations and with zero, subnormal, huge and non-finite ones.
func TestRotationsBitIdentical(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(22))
	for _, class := range []string{"normal", "subnormal", "huge", "special", "mixed"} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 60, 61} {
			rotations := []struct{ c, s complex128 }{
				{complex(rng.Float64(), 0), complex(rng.NormFloat64(), rng.NormFloat64())},
				{complex(rng.Float64(), 0), complex(rng.NormFloat64(), rng.NormFloat64())},
				{1, 0},
				{0, complex(0, -1)},
				{complex(kernelValue(rng, class), 0), complex(kernelValue(rng, class), kernelValue(rng, class))},
				{complex(0.6, 0), complex(math.NaN(), 0.8)},
				{complex(math.Inf(1), 0), complex(1e-310, -3e300)},
			}
			for _, off := range []int{0, 1} {
				for ri, r := range rotations {
					name := fmt.Sprintf("%s/n=%d/off=%d/r%d", class, n, off, ri)
					x := kernelVector(rng, n+off, class)[off:]
					y := kernelVector(rng, n+off+1, class)[off+1:]
					goX, goY, asmX, asmY := CCopy(x), CCopy(y), CCopy(x), CCopy(y)
					withKernel(false, func() { rotateRows(goX, goY, r.c, r.s) })
					withKernel(true, func() { rotateRows(asmX, asmY, r.c, r.s) })
					compareVectors(t, name+": rotateRows x", asmX, goX)
					compareVectors(t, name+": rotateRows y", asmY, goY)

					// Every adjacent column pair of an n×(3+off) matrix is
					// rotated in turn, so the pairs start on both halves
					// of a 32-byte line.
					cols := 3 + off
					m := &CDense{Rows: n, Cols: cols, Data: kernelVector(rng, n*cols, class)}
					goM, asmM := m.Clone(), m.Clone()
					for j := 0; j+1 < cols; j++ {
						withKernel(false, func() { rotateColumnPair(goM, j, n-1, r.c, r.s) })
						withKernel(true, func() { rotateColumnPair(asmM, j, n-1, r.c, r.s) })
					}
					compareVectors(t, name+": rotateColumnPair", asmM.Data, goM.Data)
				}
			}
		}
	}
}

// TestRealAndRotationKernelsWriteOnlyTheirSlice: as
// TestKernelsWriteOnlyTheirSlice, for the real kernels and the rotations.
func TestRealAndRotationKernelsWriteOnlyTheirSlice(t *testing.T) {
	skipWithoutAVX(t)
	rng := rand.New(rand.NewSource(8))
	for _, n := range realKernelLengths[:10] {
		back := realKernelVector(rng, n+2, "normal")
		guard := append([]float64(nil), back...)
		x, y := realKernelVector(rng, n, "normal"), realKernelVector(rng, n, "normal")
		axpyDot(1.5, x, y, back[1:n+1])
		Axpy(-0.25, x, back[1:n+1])
		if back[0] != guard[0] || back[n+1] != guard[n+1] {
			t.Fatalf("n=%d: real kernel wrote outside its slice", n)
		}

		q := 16*(n%3) + n
		tBack := realKernelVector(rng, q+2, "normal")
		tGuard := append([]float64(nil), tBack...)
		MulVecTrans(tBack[1:q+1], realKernelVector(rng, n*q, "normal"), x)
		if tBack[0] != tGuard[0] || tBack[q+1] != tGuard[q+1] {
			t.Fatalf("q=%d: MulVecTrans wrote outside its slice", q)
		}

		cBack := kernelVector(rng, 2*n+4, "normal")
		cGuard := CCopy(cBack)
		rotateRows(cBack[1:n+1], cBack[n+3:2*n+3], complex(0.6, 0), complex(0.48, 0.64))
		if cBack[0] != cGuard[0] || cBack[n+1] != cGuard[n+1] || cBack[n+2] != cGuard[n+2] || cBack[2*n+3] != cGuard[2*n+3] {
			t.Fatalf("n=%d: rotateRows wrote outside its slices", n)
		}

		m := &CDense{Rows: n, Cols: 4, Data: kernelVector(rng, 4*n, "normal")}
		mGuard := m.Clone()
		rotateColumnPair(m, 1, n-1, complex(0.6, 0), complex(0.48, 0.64))
		for i := 0; i < n; i++ {
			if m.Data[4*i] != mGuard.Data[4*i] || m.Data[4*i+3] != mGuard.Data[4*i+3] {
				t.Fatalf("n=%d: rotateColumnPair wrote outside its columns", n)
			}
		}
	}
}

// benchKernels runs f as a "go" sub-benchmark on the Go loops and, where
// the CPU has them, as an "avx" one on the AVX kernels.
func benchKernels(b *testing.B, f func(b *testing.B)) {
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
			withKernel(avx, func() { f(b) })
		})
	}
}

// BenchmarkProjSubChain times one Arnoldi-sized MGS pass of 30 unit-norm
// links, half-way through a d = 60 sweep's basis: the complex lane at
// 2n = 4480 and the half path's real lane at n = 2240, each on the Go
// loops and the AVX kernels. It reports ns per element (links × length).
//
//	go test -run '^$' -bench '^BenchmarkProjSubChain$' ./internal/mat/
func BenchmarkProjSubChain(b *testing.B) {
	const links = 30
	b.Run("complex", func(b *testing.B) {
		const n = 4480
		q, w0 := chainCase{links: links, n: n}.complexInputs(rand.New(rand.NewSource(1)))
		w, h := make([]complex128, n), make([]complex128, links)
		benchKernels(b, func(b *testing.B) {
			for b.Loop() {
				copy(w, w0)
				CProjSubChain(q, w, h)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links*n), "ns/element")
		})
	})
	b.Run("real", func(b *testing.B) {
		const n = 2240
		q, w0 := chainCase{links: links, n: n}.realInputs(rand.New(rand.NewSource(1)))
		w, h := make([]float64, n), make([]float64, links)
		benchKernels(b, func(b *testing.B) {
			for b.Loop() {
				copy(w, w0)
				ProjSubChain(q, w, h)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*links*n), "ns/element")
		})
	})
}

// BenchmarkMulVecTrans times the half path's V·x on case 105's shape: a
// 2240×112 row-major Vᵀ (n = 2240 states, 2p = 112) times x.
//
//	go test -run '^$' -bench '^BenchmarkMulVecTrans$' ./internal/mat/
func BenchmarkMulVecTrans(b *testing.B) {
	const n, q = 2240, 112
	rng := rand.New(rand.NewSource(1))
	a, x := realKernelVector(rng, n*q, "normal"), realKernelVector(rng, n, "normal")
	t := make([]float64, q)
	benchKernels(b, func(b *testing.B) {
		for b.Loop() {
			MulVecTrans(t, a, x)
		}
	})
}
