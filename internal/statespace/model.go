// Package statespace implements the structured state-space macromodels of
// Grivet-Talocia & Ubolli (IEEE Trans. Adv. Packaging 2006) used by the
// DATE'11 parallel Hamiltonian eigensolver paper (Sec. II, Eqs. 1–2):
//
//	H(s) = D + C (sI − A)⁻¹ B
//
// with the multiple-SIMO realization
//
//	A = blkdiag{A_k}, B = blkdiag{u_k}, C = [C_1 … C_p]
//
// where A_k is real block-diagonal (1×1 blocks for real poles, 2×2 blocks
// for complex pole pairs), u_k carries the block input weights, and
// C_k ∈ R^{p×m_k} stores the residues of the k-th column of H(s). A has at
// most 2n non-zero entries and B has n, which enables O(n) shifted solves.
//
// Invariants: Block/Column are the construction representation; the flat
// packed kernel cache (packed.go) is the execution representation, built
// lazily and bit-equivalent to the dense reference (equivalence-tested to
// 1e-12). A Model whose blocks or residues are mutated in place MUST call
// InvalidateKernels before the next kernel call, or the stale cache will
// be used.
//
// Concurrency: a Model is safe for concurrent readers — the packed cache
// is published through an atomic pointer and a racing rebuild is harmless
// because the build is deterministic. Mutation (enforcement's residue
// perturbation) requires exclusive access; Clone/Balanced/FrequencyScaled
// return fresh models and need no invalidation.
package statespace

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mat"
)

// Block is one real diagonal block of a column's A_k: either a 1×1 block
// holding a real pole, or a 2×2 block [[Sigma, Omega], [−Omega, Sigma]]
// realizing the complex pair Sigma ± j·Omega. The input entries are B1 (and
// B2 for 2×2 blocks).
type Block struct {
	Size   int // 1 or 2
	Sigma  float64
	Omega  float64 // 0 for real poles
	B1, B2 float64
}

// Poles returns the (one or two) complex poles realized by the block.
func (b Block) Poles() []complex128 {
	if b.Size == 1 {
		return []complex128{complex(b.Sigma, 0)}
	}
	return []complex128{complex(b.Sigma, b.Omega), complex(b.Sigma, -b.Omega)}
}

// Column is the SIMO realization of one column of H(s): the k-th column is
// D[:,k] + C·(sI − A_k)⁻¹·u_k.
type Column struct {
	Blocks []Block
	// C is the p×m residue matrix of this column, m = Order().
	C *mat.Dense
}

// Order returns the dynamic order m_k of the column.
func (c *Column) Order() int {
	m := 0
	for _, b := range c.Blocks {
		m += b.Size
	}
	return m
}

// Model is a structured state-space macromodel (Eqs. 1–2). The global state
// ordering is column-major: states of column 1's blocks first, then column
// 2's, and so on.
type Model struct {
	P    int        // number of ports
	D    *mat.Dense // p×p direct coupling
	Cols []Column   // one per port column, len == P

	// pack caches the flat kernel representation (see packed.go), built
	// lazily on first structured-operator call. In-place mutators must call
	// InvalidateKernels.
	pack atomic.Pointer[packed]
}

// Order returns the total dynamic order n = Σ m_k.
func (m *Model) Order() int {
	n := 0
	for i := range m.Cols {
		n += m.Cols[i].Order()
	}
	return n
}

// Validate checks structural consistency and stability of the model.
func (m *Model) Validate() error {
	if m.P <= 0 {
		return errors.New("statespace: model has no ports")
	}
	if len(m.Cols) != m.P {
		return fmt.Errorf("statespace: %d columns for %d ports", len(m.Cols), m.P)
	}
	if m.D == nil || m.D.Rows != m.P || m.D.Cols != m.P {
		return errors.New("statespace: D has wrong shape")
	}
	for k := range m.Cols {
		col := &m.Cols[k]
		if col.C == nil || col.C.Rows != m.P || col.C.Cols != col.Order() {
			return fmt.Errorf("statespace: column %d residue matrix has wrong shape", k)
		}
		for _, b := range col.Blocks {
			if b.Size != 1 && b.Size != 2 {
				return fmt.Errorf("statespace: column %d has block of size %d", k, b.Size)
			}
			if b.Sigma >= 0 {
				return fmt.Errorf("statespace: column %d has unstable pole Re = %g", k, b.Sigma)
			}
			if b.Size == 1 && b.Omega != 0 {
				return fmt.Errorf("statespace: column %d: 1×1 block with Omega != 0", k)
			}
		}
	}
	return nil
}

// Poles returns all poles of the model (with multiplicity, column by column).
func (m *Model) Poles() []complex128 {
	var out []complex128
	for k := range m.Cols {
		for _, b := range m.Cols[k].Blocks {
			out = append(out, b.Poles()...)
		}
	}
	return out
}

// Eval computes the p×p transfer matrix H(s) at the complex frequency s.
// The cost is O(n·p) using the block structure.
func (m *Model) Eval(s complex128) *mat.CDense {
	h := m.D.ToComplex()
	x := make([]complex128, 0, 64)
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		if cap(x) < mOrd {
			x = make([]complex128, mOrd)
		}
		x = x[:mOrd]
		// x = (sI − A_k)⁻¹ u_k blockwise.
		off := 0
		for _, b := range col.Blocks {
			if b.Size == 1 {
				x[off] = complex(b.B1, 0) / (s - complex(b.Sigma, 0))
				off++
				continue
			}
			// Solve [[s−σ, −ω], [ω, s−σ]]·[x1;x2] = [b1;b2].
			d := (s - complex(b.Sigma, 0))
			det := d*d + complex(b.Omega*b.Omega, 0)
			x[off] = (d*complex(b.B1, 0) + complex(b.Omega*b.B2, 0)) / det
			x[off+1] = (d*complex(b.B2, 0) - complex(b.Omega*b.B1, 0)) / det
			off += 2
		}
		// H[:,k] += C_k·x.
		for i := 0; i < m.P; i++ {
			var acc complex128
			ri := col.C.Row(i)
			for j := 0; j < mOrd; j++ {
				acc += complex(ri[j], 0) * x[j]
			}
			h.Set(i, k, h.At(i, k)+acc)
		}
	}
	return h
}

// EvalJW computes H(jω).
func (m *Model) EvalJW(omega float64) *mat.CDense { return m.Eval(complex(0, omega)) }

// MaxSigma returns σ_max(H(jω)).
func (m *Model) MaxSigma(omega float64) (float64, error) {
	return mat.MaxSingularValue(m.EvalJW(omega))
}

// MinHermEig returns λ_min(H(jω) + H(jω)ᴴ), the immittance passivity
// margin: an admittance/impedance model is passive iff this stays ≥ 0 for
// all ω.
func (m *Model) MinHermEig(omega float64) (float64, error) {
	h := m.EvalJW(omega)
	g := h.Add(h.H())
	vals, err := mat.CEigValues(g)
	if err != nil {
		return 0, err
	}
	min := math.Inf(1)
	for _, v := range vals {
		// g is Hermitian: eigenvalues are real up to round-off.
		if real(v) < min {
			min = real(v)
		}
	}
	return min, nil
}

// DenseA assembles the full n×n A matrix (for tests and dense baselines).
func (m *Model) DenseA() *mat.Dense {
	n := m.Order()
	a := mat.NewDense(n, n)
	off := 0
	for k := range m.Cols {
		for _, b := range m.Cols[k].Blocks {
			if b.Size == 1 {
				a.Set(off, off, b.Sigma)
				off++
				continue
			}
			a.Set(off, off, b.Sigma)
			a.Set(off, off+1, b.Omega)
			a.Set(off+1, off, -b.Omega)
			a.Set(off+1, off+1, b.Sigma)
			off += 2
		}
	}
	return a
}

// DenseB assembles the full n×p B matrix.
func (m *Model) DenseB() *mat.Dense {
	n := m.Order()
	bm := mat.NewDense(n, m.P)
	off := 0
	for k := range m.Cols {
		for _, b := range m.Cols[k].Blocks {
			bm.Set(off, k, b.B1)
			if b.Size == 2 {
				bm.Set(off+1, k, b.B2)
			}
			off += b.Size
		}
	}
	return bm
}

// DenseC assembles the full p×n C matrix.
func (m *Model) DenseC() *mat.Dense {
	n := m.Order()
	cm := mat.NewDense(m.P, n)
	off := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < m.P; i++ {
			for j := 0; j < mOrd; j++ {
				cm.Set(i, off+j, col.C.At(i, j))
			}
		}
		off += mOrd
	}
	return cm
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{P: m.P, D: m.D.Clone(), Cols: make([]Column, len(m.Cols))}
	for k := range m.Cols {
		c.Cols[k].Blocks = append([]Block(nil), m.Cols[k].Blocks...)
		c.Cols[k].C = m.Cols[k].C.Clone()
	}
	return c
}

// ---- structured operator kernels (all O(n) or O(n·p)) ----

// ApplyA computes y = A·x on the real state vector x (len n).
func (m *Model) ApplyA(x []float64) []float64 {
	n := m.Order()
	if len(x) != n {
		panic(fmt.Sprintf("statespace: ApplyA length %d, want %d", len(x), n))
	}
	y := make([]float64, n)
	off := 0
	for k := range m.Cols {
		for _, b := range m.Cols[k].Blocks {
			if b.Size == 1 {
				y[off] = b.Sigma * x[off]
				off++
				continue
			}
			y[off] = b.Sigma*x[off] + b.Omega*x[off+1]
			y[off+1] = -b.Omega*x[off] + b.Sigma*x[off+1]
			off += 2
		}
	}
	return y
}

// MaxPoleMagnitude returns max |p_i| over the model poles; this bounds the
// spectral radius of A and seeds the ω_max estimate.
func (m *Model) MaxPoleMagnitude() float64 {
	var mx float64
	for k := range m.Cols {
		for _, b := range m.Cols[k].Blocks {
			mag := math.Hypot(b.Sigma, b.Omega)
			if mag > mx {
				mx = mag
			}
		}
	}
	return mx
}

// Balanced returns a diagonally state-scaled copy of the model in which
// every block's input weight and output-column norm are equalized:
// x' = T⁻¹x with T constant on each 1×1/2×2 block leaves A (and H(s))
// exactly invariant while B' = B/d and C' = C·d with d = √(‖b‖/‖c‖).
// Physical macromodels carry B ~ 1 and C ~ pole magnitude (1e9+), which
// makes the Hamiltonian so non-normal that projected eigenproblems lose
// all accuracy to cancellation; balancing removes that scale disparity.
func (m *Model) Balanced() *Model {
	c := m.Clone()
	for k := range c.Cols {
		col := &c.Cols[k]
		off := 0
		for bi := range col.Blocks {
			b := &col.Blocks[bi]
			bnorm := math.Hypot(b.B1, b.B2)
			var cs float64
			for i := 0; i < c.P; i++ {
				for s := 0; s < b.Size; s++ {
					v := col.C.At(i, off+s)
					cs += v * v
				}
			}
			cnorm := math.Sqrt(cs)
			if bnorm > 0 && cnorm > 0 {
				d := math.Sqrt(bnorm / cnorm)
				b.B1 /= d
				b.B2 /= d
				for i := 0; i < c.P; i++ {
					for s := 0; s < b.Size; s++ {
						col.C.Set(i, off+s, col.C.At(i, off+s)*d)
					}
				}
			}
			off += b.Size
		}
	}
	return c
}

// FrequencyScaled returns the model expressed in the dimensionless
// frequency s' = s/w0: {A/w0, B, C/w0, D}. The transfer function satisfies
// H'(s/w0) = H(s), so Hamiltonian eigenvalues scale as λ' = λ/w0. Working
// on a scaled model keeps dense eigensolvers well conditioned when the
// physical band sits at 1e8–1e10 rad/s.
func (m *Model) FrequencyScaled(w0 float64) *Model {
	if w0 <= 0 {
		panic(fmt.Sprintf("statespace: invalid frequency scale %g", w0))
	}
	c := m.Clone()
	for k := range c.Cols {
		col := &c.Cols[k]
		for i := range col.Blocks {
			col.Blocks[i].Sigma /= w0
			col.Blocks[i].Omega /= w0
		}
		col.C = col.C.Scale(1 / w0)
	}
	return c
}

// PoleResidueEval evaluates a pole-residue expansion directly (used to
// cross-check realizations): H_col(s) = Σ_i r_i/(s − p_i) summed over the
// column's poles, plus d.
func PoleResidueEval(s complex128, poles []complex128, residues []complex128, d complex128) complex128 {
	acc := d
	for i, p := range poles {
		acc += residues[i] / (s - p)
	}
	return acc
}
