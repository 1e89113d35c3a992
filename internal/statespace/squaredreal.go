package statespace

import "repro/internal/mat"

// Squared-operator kernels for the half-size Hamiltonian path. For a
// reciprocal model the 2n×2n Hamiltonian M is similar to [0, P̃; Q̃, 0]
// with P̃ = A + B·Wp·C and Q̃ = A + B·Wq·C, so spec(M)² = spec(N) with
//
//	N = Q̃·P̃ = A² + U·V,  U = [A·B | B] (n×2p),
//	V = [Wp·C ; Wq·(C·A + (C·B)·Wp·C)] (2p×n, real).
//
// A² inherits A's block-diagonal form — each 2×2 rotation block squares to
// another rotation block with σ' = σ² − ω², ω' = 2σω — so (N − τI)⁻¹ is
// again a block-diagonal solve plus a rank-2p SMW correction, mirroring
// the full-size shift-invert setup at half the state dimension. V is
// precomputed by the hamiltonian package (it owns Wp/Wq); the kernels here
// provide the block-local pieces: A² applies/solves, the U-pair apply, and
// the V·(A² − τI)⁻¹·U capacitance panels (single and multi-shift).
//
// Every sweep shift on the half-size path is τ = −ω² — real — and N is
// itself real, so the kernels work on real state vectors end to end: the
// shift-invert Arnoldi runs on its real lane, at half the memory traffic
// and half the flops of complex arithmetic. Each kernel is deterministic
// for a fixed model and shift.

// RApplyA2 computes y = A²·x blockwise on a real state vector.
func (m *Model) RApplyA2(y, x []float64) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		y[off] = s * s * x[off]
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		s2, w2 := sg*sg-w*w, 2*sg*w
		x0, x1 := x[off], x[off+1]
		y[off] = s2*x0 + w2*x1
		y[off+1] = s2*x1 - w2*x0
	}
}

// RSolveShiftedA2 solves (A² − τI)·y = x blockwise in O(n) for a real
// shift τ. Returns mat.ErrSingular when τ coincides with a squared pole.
func (m *Model) RSolveShiftedA2(y, x []float64, tau float64) error {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := s*s - tau
		if d == 0 {
			return mat.ErrSingular
		}
		y[off] = x[off] / d
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := sg*sg - w*w - tau
		det := d*d + w2*w2
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		x0, x1 := x[off], x[off+1]
		y[off] = (d*x0 - w2*x1) * idet
		y[off+1] = (w2*x0 + d*x1) * idet
	}
	return nil
}

// RApplyABPair computes y = A·B·s1 + B·s2 for real s1, s2 ∈ R^p in O(n):
// the U-block apply of the half-size SMW correction on real vectors.
func (m *Model) RApplyABPair(y []float64, s1, s2 []float64) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		b1 := pk.b11[i]
		u1, u2 := s1[pk.col1[i]], s2[pk.col1[i]]
		y[off] = s*b1*u1 + b1*u2
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		b1, b2 := pk.b21[i], pk.b22[i]
		// (A·B)_block = [[σ, ω], [−ω, σ]]·[b1; b2].
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		u1, u2 := s1[pk.col2[i]], s2[pk.col2[i]]
		y[off] = ab1*u1 + b1*u2
		y[off+1] = ab2*u1 + b2*u2
	}
}

// RResolventA2BPair computes the real q×2p capacitance panel
//
//	X = [ V·(A² − τI)⁻¹·A·B | V·(A² − τI)⁻¹·B ]
//
// into dst (row-major, len q·2p) for a real shift τ and a real q×n matrix
// V supplied TRANSPOSED as vt (n×q row-major, so each state reads one
// contiguous q-row). The per-column resolvent solves are block-local, so
// the panel costs O(n·q). Returns mat.ErrSingular when τ hits a squared
// pole.
func (m *Model) RResolventA2BPair(dst []float64, vt []float64, q int, tau float64) error {
	pk := m.packKernels()
	p := pk.p
	for i := range dst[:q*2*p] {
		dst[i] = 0
	}
	for i, off := range pk.off1 {
		s := pk.sig1[i]
		d := s*s - tau
		if d == 0 {
			return mat.ErrSingular
		}
		b1 := pk.b11[i]
		// Solves for the two right-hand sides A·B = σ·b1 and B = b1.
		gb := b1 / d
		ga := s * gb
		k := int(pk.col1[i])
		row := vt[int(off)*q : (int(off)+1)*q]
		for r, vv := range row {
			dst[r*2*p+k] += vv * ga
			dst[r*2*p+p+k] += vv * gb
		}
	}
	for i, off := range pk.off2 {
		sg, w := pk.sig2[i], pk.om2[i]
		w2 := 2 * sg * w
		d := sg*sg - w*w - tau
		det := d*d + w2*w2
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		b1, b2 := pk.b21[i], pk.b22[i]
		ab1, ab2 := sg*b1+w*b2, -w*b1+sg*b2
		// Solve [[σ'−τ, ω'], [−ω', σ'−τ]]·x = rhs for rhs ∈ {A·B, B}.
		ga0 := (ab1*d - w2*ab2) * idet
		ga1 := (ab2*d + w2*ab1) * idet
		gb0 := (b1*d - w2*b2) * idet
		gb1 := (b2*d + w2*b1) * idet
		k := int(pk.col2[i])
		row0 := vt[int(off)*q : (int(off)+1)*q]
		row1 := vt[(int(off)+1)*q : (int(off)+2)*q]
		for r := 0; r < q; r++ {
			v0, v1 := row0[r], row1[r]
			dst[r*2*p+k] += v0*ga0 + v1*ga1
			dst[r*2*p+p+k] += v0*gb0 + v1*gb1
		}
	}
	return nil
}
