package mat

import (
	"math"
	"math/cmplx"
	"sort"
)

// CSVD holds a complex singular value decomposition A = U·diag(S)·Vᴴ.
// U is m×k and V is n×k with k = min(m, n); S is sorted descending.
type CSVD struct {
	U *CDense
	S []float64
	V *CDense
}

// CSVDecompose computes the thin SVD of the m×n complex matrix a using
// one-sided Jacobi rotations. It is accurate and simple; intended for the
// small (≤ a few hundred) matrices appearing in this library (p×p transfer
// matrices, projected problems, least-squares blocks).
func CSVDecompose(a *CDense) (*CSVD, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Decompose the conjugate transpose and swap factors:
		// Aᴴ = U'ΣV'ᴴ ⇒ A = V'ΣU'ᴴ.
		sv, err := CSVDecompose(a.H())
		if err != nil {
			return nil, err
		}
		return &CSVD{U: sv.V, S: sv.S, V: sv.U}, nil
	}
	// Work on a copy; V accumulates the right rotations.
	w := a.Clone()
	v := CEye(n)
	const tol = 1e-14
	const maxSweeps = 60
	// Column accessors on the row-major store.
	colDot := func(mtx *CDense, i, j int) complex128 {
		var s complex128
		for r := 0; r < mtx.Rows; r++ {
			s += cmplx.Conj(mtx.Data[r*mtx.Cols+i]) * mtx.Data[r*mtx.Cols+j]
		}
		return s
	}
	rotate := func(mtx *CDense, i, j int, cs float64, snE, snEbar complex128) {
		for r := 0; r < mtx.Rows; r++ {
			ci := mtx.Data[r*mtx.Cols+i]
			cj := mtx.Data[r*mtx.Cols+j]
			mtx.Data[r*mtx.Cols+i] = complex(cs, 0)*ci - snEbar*cj
			mtx.Data[r*mtx.Cols+j] = snE*ci + complex(cs, 0)*cj
		}
	}
	converged := false
	for sweep := 0; sweep < maxSweeps && !converged; sweep++ {
		converged = true
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				aii := real(colDot(w, i, i))
				ajj := real(colDot(w, j, j))
				g := colDot(w, i, j)
				ag := cmplx.Abs(g)
				if ag <= tol*math.Sqrt(aii*ajj) || ag == 0 {
					continue
				}
				converged = false
				e := g / complex(ag, 0)
				tau := (aii - ajj) / (2 * ag)
				// Smaller-magnitude root of t² − 2τt − 1 = 0 for a stable
				// inner rotation (classic Jacobi convergence condition).
				var t float64
				if tau >= 0 {
					t = -1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = 1 / (-tau + math.Sqrt(1+tau*tau))
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := t * cs
				snE := complex(sn, 0) * e
				snEbar := complex(sn, 0) * cmplx.Conj(e)
				rotate(w, i, j, cs, snE, snEbar)
				rotate(v, i, j, cs, snE, snEbar)
			}
		}
	}
	if !converged {
		return nil, ErrNoConvergence
	}
	// Extract singular values and left vectors.
	type col struct {
		idx int
		s   float64
	}
	cols := make([]col, n)
	for j := 0; j < n; j++ {
		var ss float64
		for r := 0; r < m; r++ {
			z := w.Data[r*n+j]
			ss += real(z)*real(z) + imag(z)*imag(z)
		}
		cols[j] = col{idx: j, s: math.Sqrt(ss)}
	}
	sort.SliceStable(cols, func(a, b int) bool { return cols[a].s > cols[b].s })
	u := NewCDense(m, n)
	vOut := NewCDense(n, n)
	s := make([]float64, n)
	for k, c := range cols {
		s[k] = c.s
		for r := 0; r < n; r++ {
			vOut.Set(r, k, v.At(r, c.idx))
		}
		if c.s > 0 {
			inv := complex(1/c.s, 0)
			for r := 0; r < m; r++ {
				u.Set(r, k, w.At(r, c.idx)*inv)
			}
		}
	}
	// Complete U columns for (numerically) zero singular values so that U
	// stays orthonormal: Gram-Schmidt canonical vectors against the rest.
	for k := 0; k < n; k++ {
		if s[k] > 0 {
			continue
		}
		for try := 0; try < m; try++ {
			cand := make([]complex128, m)
			cand[try] = 1
			for j := 0; j < n; j++ {
				if j == k {
					continue
				}
				var proj complex128
				for r := 0; r < m; r++ {
					proj += cmplx.Conj(u.At(r, j)) * cand[r]
				}
				for r := 0; r < m; r++ {
					cand[r] -= proj * u.At(r, j)
				}
			}
			if nrm := CNorm2(cand); nrm > 0.5 {
				inv := complex(1/nrm, 0)
				for r := 0; r < m; r++ {
					u.Set(r, k, cand[r]*inv)
				}
				break
			}
		}
	}
	return &CSVD{U: u, S: s, V: vOut}, nil
}

// SingularValues returns the singular values of the complex matrix a in
// descending order.
func SingularValues(a *CDense) ([]float64, error) {
	sv, err := CSVDecompose(a)
	if err != nil {
		return nil, err
	}
	return sv.S, nil
}

// MaxSingularValue returns σ_max(a). The extreme value is computed by the
// targeted Gram-matrix Lanczos iteration (see sigmax.go) — ~15–20× cheaper
// than a full SVD for the band-probe workload — with the Jacobi SVD as the
// fallback when the iteration cannot certify convergence.
func MaxSingularValue(a *CDense) (float64, error) {
	if s, ok := maxSingularValueLanczos(a); ok {
		return s, nil
	}
	s, err := SingularValues(a)
	if err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return 0, nil
	}
	return s[0], nil
}

// SVDReal computes the thin SVD of a real matrix (via the complex path).
// U and V returned are real matrices.
type SVDReal struct {
	U *Dense
	S []float64
	V *Dense
}

// SVDecompose computes the thin SVD of the real matrix a.
func SVDecompose(a *Dense) (*SVDReal, error) {
	sv, err := CSVDecompose(a.ToComplex())
	if err != nil {
		return nil, err
	}
	// For a real input the factors can be chosen real: rotate each column
	// pair phase so the largest-magnitude entry of each U column is real.
	k := len(sv.S)
	u := NewDense(sv.U.Rows, k)
	v := NewDense(sv.V.Rows, k)
	for j := 0; j < k; j++ {
		// Find the phase of the dominant U entry.
		var ph complex128 = 1
		var best float64
		for i := 0; i < sv.U.Rows; i++ {
			if ab := cmplx.Abs(sv.U.At(i, j)); ab > best {
				best = ab
				ph = sv.U.At(i, j) / complex(ab, 0)
			}
		}
		if best == 0 {
			ph = 1
		}
		conj := cmplx.Conj(ph)
		for i := 0; i < sv.U.Rows; i++ {
			u.Set(i, j, real(sv.U.At(i, j)*conj))
		}
		for i := 0; i < sv.V.Rows; i++ {
			v.Set(i, j, real(sv.V.At(i, j)*conj))
		}
	}
	return &SVDReal{U: u, S: sv.S, V: v}, nil
}

// Norm2Mat returns the spectral norm (largest singular value) of the real
// matrix a.
func Norm2Mat(a *Dense) (float64, error) {
	s, err := SingularValues(a.ToComplex())
	if err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return 0, nil
	}
	return s[0], nil
}
