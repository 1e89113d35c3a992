package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkProjectedEig times the two eigensolves an Arnoldi restart runs
// on its k×k projected Hessenberg matrix: the full CEig behind the final
// Ritz pairs (Hessenberg reduction, Schur vectors, every eigenvector) and
// the StopEarly check's HessenbergRitzEstimates (eigenvalues and the last
// row of the eigenvectors only), at k = 20, 40 and the paper's d = 60,
// each with the Givens rotations on the Go loops ("go") and, where the CPU
// has them, the AVX kernels ("avx"). The input is a seeded upper
// Hessenberg matrix with a real positive subdiagonal, Arnoldi's shape; the
// check's copy of it is part of the timed loop, as the sweep hands the
// check a copy.
//
//	go test -run '^$' -bench '^BenchmarkProjectedEig$' -benchmem ./internal/mat/
func BenchmarkProjectedEig(b *testing.B) {
	for _, k := range []int{20, 40, 60} {
		h := arnoldiShapedHessenberg(rand.New(rand.NewSource(int64(k))), k)
		b.Run(fmt.Sprintf("k=%d/CEig", k), func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := CEig(h); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
		b.Run(fmt.Sprintf("k=%d/StopEarly", k), func(b *testing.B) {
			work := NewCDense(k, k)
			benchKernels(b, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					copy(work.Data, h.Data)
					if _, _, err := HessenbergRitzEstimates(work); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
