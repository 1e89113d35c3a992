package statespace

import "repro/internal/mat"

// packed is the flat, precomputed kernel representation of a Model. The
// Block/Column structs are convenient to build and mutate, but walking them
// per apply costs a pointer chase per column plus a struct load per block,
// and the residues sit behind column-strided At(i,j) access. packed lays
// everything out for the O(n·p) hot loops instead:
//
//   - block coefficients (σ, ω, b1, b2) in flat []float64, split by block
//     size so each kernel runs two branch-free loops;
//   - the global p×n C both row-major (c, streamed by CApplyC) and
//     transposed n×p (ct, streamed by CApplyCT and the SMW panels);
//   - per-block state offsets and owning port column.
//
// All coefficients are real, so every kernel uses real×complex arithmetic
// (2 real multiplies per element) instead of promoting to complex×complex
// (4 multiplies + 2 adds) via complex(x, 0).
//
// A packed is immutable once built; Model caches one lazily and drops the
// cache on in-place mutation (InvalidateKernels).
type packed struct {
	n, p int

	// backend is the dispatcher's resolution for this kernel generation
	// (see resolveBackend). It decides which of the C storages below is
	// populated and which loop family the C-touching kernels run.
	backend Backend

	// 1×1 blocks: state offset, pole, input weight, owning port column.
	off1 []int32
	sig1 []float64
	b11  []float64
	col1 []int32

	// 2×2 blocks: state offset, σ ± jω pair, input weights, owning column.
	off2 []int32
	sig2 []float64
	om2  []float64
	b21  []float64
	b22  []float64
	col2 []int32

	// Packed-dense C storage (nil under BackendSparse).
	c  []float64 // global C, p×n row-major
	ct []float64 // global Cᵀ, n×p row-major

	// CSR C storage (nil under BackendPackedDense): cr* compresses the
	// p×n C by rows, ct* compresses the n×p Cᵀ by rows (i.e. C by
	// columns). Column indices are ascending within each row, so sparse
	// accumulation visits entries in the same order as the dense loops —
	// the results differ only by the skipped structural-zero terms.
	crPtr []int32
	crIdx []int32
	crVal []float64
	ctPtr []int32
	ctIdx []int32
	ctVal []float64
}

// packKernels returns the cached packed representation, building it on
// first use. Safe for concurrent callers: a race builds the (identical)
// representation twice and one copy wins.
func (m *Model) packKernels() *packed {
	if pk := m.pack.Load(); pk != nil {
		return pk
	}
	pk := m.buildPacked(m.resolveBackend())
	m.pack.Store(pk)
	return pk
}

// InvalidateKernels drops the cached packed kernel data. Callers that
// mutate a Model in place (pole or residue updates) must invalidate before
// the next structured-operator call; Clone/Balanced/FrequencyScaled return
// fresh models and need no invalidation.
func (m *Model) InvalidateKernels() {
	m.pack.Store(nil)
}

// buildPacked lays the model out for the given backend's kernels.
func (m *Model) buildPacked(backend Backend) *packed {
	n := m.Order()
	pk := &packed{
		n:       n,
		p:       m.P,
		backend: backend,
	}
	if pk.backend != BackendSparse {
		pk.c = make([]float64, m.P*n)
		pk.ct = make([]float64, n*m.P)
	}
	off := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		if pk.backend != BackendSparse {
			for i := 0; i < m.P; i++ {
				ri := col.C.Row(i)
				copy(pk.c[i*n+off:i*n+off+mOrd], ri)
				for j := 0; j < mOrd; j++ {
					pk.ct[(off+j)*m.P+i] = ri[j]
				}
			}
		}
		boff := off
		for _, b := range col.Blocks {
			if b.Size == 1 {
				pk.off1 = append(pk.off1, int32(boff))
				pk.sig1 = append(pk.sig1, b.Sigma)
				pk.b11 = append(pk.b11, b.B1)
				pk.col1 = append(pk.col1, int32(k))
			} else {
				pk.off2 = append(pk.off2, int32(boff))
				pk.sig2 = append(pk.sig2, b.Sigma)
				pk.om2 = append(pk.om2, b.Omega)
				pk.b21 = append(pk.b21, b.B1)
				pk.b22 = append(pk.b22, b.B2)
				pk.col2 = append(pk.col2, int32(k))
			}
			boff += b.Size
		}
		off += mOrd
	}
	if pk.backend == BackendSparse {
		m.buildCSR(pk)
	}
	return pk
}

// scmul returns a·z for real a without promoting a to complex.
func scmul(a float64, z complex128) complex128 {
	return complex(a*real(z), a*imag(z))
}

// CApplyA computes y = A·x on a complex state vector, writing into y.
func (m *Model) CApplyA(y, x []complex128) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		y[off] = scmul(pk.sig1[i], x[off])
	}
	for i, off := range pk.off2 {
		s, w := pk.sig2[i], pk.om2[i]
		x0, x1 := x[off], x[off+1]
		y[off] = complex(s*real(x0)+w*real(x1), s*imag(x0)+w*imag(x1))
		y[off+1] = complex(s*real(x1)-w*real(x0), s*imag(x1)-w*imag(x0))
	}
}

// CApplyAT computes y = Aᵀ·x on a complex state vector.
func (m *Model) CApplyAT(y, x []complex128) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		y[off] = scmul(pk.sig1[i], x[off])
	}
	for i, off := range pk.off2 {
		s, w := pk.sig2[i], pk.om2[i]
		x0, x1 := x[off], x[off+1]
		y[off] = complex(s*real(x0)-w*real(x1), s*imag(x0)-w*imag(x1))
		y[off+1] = complex(s*real(x1)+w*real(x0), s*imag(x1)+w*imag(x0))
	}
}

// CSolveShiftedA solves (A − θI)·y = x blockwise in O(n). Returns an error
// if θ coincides with a pole (singular block).
func (m *Model) CSolveShiftedA(y, x []complex128, theta complex128) error {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		d := complex(pk.sig1[i], 0) - theta
		if d == 0 {
			return mat.ErrSingular
		}
		y[off] = x[off] / d
	}
	for i, off := range pk.off2 {
		// Solve [[σ−θ, ω], [−ω, σ−θ]]·y = x.
		w := pk.om2[i]
		d := complex(pk.sig2[i], 0) - theta
		det := d*d + complex(w*w, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		x0, x1 := x[off], x[off+1]
		y[off] = (d*x0 - scmul(w, x1)) * idet
		y[off+1] = (scmul(w, x0) + d*x1) * idet
	}
	return nil
}

// CSolveShiftedAT solves (Aᵀ − θI)·y = x blockwise in O(n).
func (m *Model) CSolveShiftedAT(y, x []complex128, theta complex128) error {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		d := complex(pk.sig1[i], 0) - theta
		if d == 0 {
			return mat.ErrSingular
		}
		y[off] = x[off] / d
	}
	for i, off := range pk.off2 {
		// Aᵀ block is [[σ, −ω], [ω, σ]]; solve (Aᵀ − θI)y = x.
		w := pk.om2[i]
		d := complex(pk.sig2[i], 0) - theta
		det := d*d + complex(w*w, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		x0, x1 := x[off], x[off+1]
		y[off] = (d*x0 + scmul(w, x1)) * idet
		y[off+1] = (d*x1 - scmul(w, x0)) * idet
	}
	return nil
}

// CApplyB computes y = B·u, u ∈ C^p, y ∈ C^n.
func (m *Model) CApplyB(y []complex128, u []complex128) {
	pk := m.packKernels()
	for i, off := range pk.off1 {
		y[off] = scmul(pk.b11[i], u[pk.col1[i]])
	}
	for i, off := range pk.off2 {
		uk := u[pk.col2[i]]
		y[off] = scmul(pk.b21[i], uk)
		y[off+1] = scmul(pk.b22[i], uk)
	}
}

// CApplyBT computes y = Bᵀ·x, x ∈ C^n, y ∈ C^p.
func (m *Model) CApplyBT(y []complex128, x []complex128) {
	pk := m.packKernels()
	for k := 0; k < pk.p; k++ {
		y[k] = 0
	}
	for i, off := range pk.off1 {
		y[pk.col1[i]] += scmul(pk.b11[i], x[off])
	}
	for i, off := range pk.off2 {
		b1, b2 := pk.b21[i], pk.b22[i]
		x0, x1 := x[off], x[off+1]
		y[pk.col2[i]] += complex(b1*real(x0)+b2*real(x1), b1*imag(x0)+b2*imag(x1))
	}
}

// CApplyC computes y = C·x, x ∈ C^n, y ∈ C^p. Each pass streams four
// contiguous rows of the packed C against one read of x, with a separate
// (re, im) accumulator pair per row; leftover rows run one at a time. Every
// output still accumulates sequentially in j, which keeps the result
// bit-identical to the dense row·vector reference.
func (m *Model) CApplyC(y []complex128, x []complex128) {
	pk := m.packKernels()
	if pk.backend == BackendSparse {
		pk.sparseApplyC(y, x)
		return
	}
	n := pk.n
	x = x[:n]
	i := 0
	for ; i+4 <= pk.p; i += 4 {
		r0 := pk.c[i*n : (i+1)*n][:len(x)]
		r1 := pk.c[(i+1)*n : (i+2)*n][:len(x)]
		r2 := pk.c[(i+2)*n : (i+3)*n][:len(x)]
		r3 := pk.c[(i+3)*n : (i+4)*n][:len(x)]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for j, xj := range x {
			xr, xi := real(xj), imag(xj)
			c0, c1, c2, c3 := r0[j], r1[j], r2[j], r3[j]
			re0 += c0 * xr
			im0 += c0 * xi
			re1 += c1 * xr
			im1 += c1 * xi
			re2 += c2 * xr
			im2 += c2 * xi
			re3 += c3 * xr
			im3 += c3 * xi
		}
		y[i] = complex(re0, im0)
		y[i+1] = complex(re1, im1)
		y[i+2] = complex(re2, im2)
		y[i+3] = complex(re3, im3)
	}
	for ; i < pk.p; i++ {
		y[i] = dotRealComplex(pk.c[i*n:(i+1)*n], x)
	}
}

// CApplyCT computes y = Cᵀ·u, u ∈ C^p, y ∈ C^n, streaming the transposed
// packing so every state reads one contiguous p-row. Like CApplyC it
// handles four states per pass against one read of u, each with its own
// accumulator pair in the row's order.
func (m *Model) CApplyCT(y []complex128, u []complex128) {
	pk := m.packKernels()
	if pk.backend == BackendSparse {
		pk.sparseApplyCT(y, u)
		return
	}
	p := pk.p
	u = u[:p]
	j := 0
	for ; j+4 <= pk.n; j += 4 {
		r0 := pk.ct[j*p : (j+1)*p][:len(u)]
		r1 := pk.ct[(j+1)*p : (j+2)*p][:len(u)]
		r2 := pk.ct[(j+2)*p : (j+3)*p][:len(u)]
		r3 := pk.ct[(j+3)*p : (j+4)*p][:len(u)]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for i, ui := range u {
			ur, uim := real(ui), imag(ui)
			c0, c1, c2, c3 := r0[i], r1[i], r2[i], r3[i]
			re0 += c0 * ur
			im0 += c0 * uim
			re1 += c1 * ur
			im1 += c1 * uim
			re2 += c2 * ur
			im2 += c2 * uim
			re3 += c3 * ur
			im3 += c3 * uim
		}
		y[j] = complex(re0, im0)
		y[j+1] = complex(re1, im1)
		y[j+2] = complex(re2, im2)
		y[j+3] = complex(re3, im3)
	}
	for ; j < pk.n; j++ {
		y[j] = dotRealComplex(pk.ct[j*p:(j+1)*p], u)
	}
}

// dotRealComplex returns Σ row[j]·x[j] for a real row, accumulated
// sequentially in j: one C row (or Cᵀ row) of CApplyC/CApplyCT.
func dotRealComplex(row []float64, x []complex128) complex128 {
	x = x[:len(row)]
	var re, im float64
	for j, cj := range row {
		xj := x[j]
		re += cj * real(xj)
		im += cj * imag(xj)
	}
	return complex(re, im)
}

// CResolventB computes the p×p panel X = C·(A − θI)⁻¹·B into dst
// (row-major, len p²) in O(n·p): B's k-th column is supported only on
// column k's states, so each per-column resolvent solve is block-local and
// feeds a rank-m_k update of X's k-th column through the packed Cᵀ rows.
// Note C·(A − θI)⁻¹·B = −(H(θ) − D). Returns mat.ErrSingular when θ hits a
// pole.
func (m *Model) CResolventB(dst []complex128, theta complex128) error {
	pk := m.packKernels()
	if pk.backend == BackendSparse {
		return pk.sparseResolventB(dst, theta)
	}
	p := pk.p
	for i := range dst[:p*p] {
		dst[i] = 0
	}
	for i, off := range pk.off1 {
		d := complex(pk.sig1[i], 0) - theta
		if d == 0 {
			return mat.ErrSingular
		}
		x0 := complex(pk.b11[i], 0) / d
		k := int(pk.col1[i])
		r0, i0 := real(x0), imag(x0)
		row := pk.ct[int(off)*p : (int(off)+1)*p]
		for r, cv := range row {
			dst[r*p+k] += complex(cv*r0, cv*i0)
		}
	}
	for i, off := range pk.off2 {
		w := pk.om2[i]
		d := complex(pk.sig2[i], 0) - theta
		det := d*d + complex(w*w, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		b1, b2 := pk.b21[i], pk.b22[i]
		// [[σ−θ, ω], [−ω, σ−θ]]·x = b.
		x0 := (scmul(b1, d) - complex(w*b2, 0)) * idet
		x1 := (scmul(b2, d) + complex(w*b1, 0)) * idet
		k := int(pk.col2[i])
		r0, i0 := real(x0), imag(x0)
		r1, i1 := real(x1), imag(x1)
		row0 := pk.ct[int(off)*p : (int(off)+1)*p]
		row1 := pk.ct[(int(off)+1)*p : (int(off)+2)*p]
		for r := 0; r < p; r++ {
			c0, c1 := row0[r], row1[r]
			dst[r*p+k] += complex(c0*r0+c1*r1, c0*i0+c1*i1)
		}
	}
	return nil
}

// BTResolventCT computes the p×p panel X = Bᵀ·(Aᵀ − θI)⁻¹·Cᵀ into dst
// (row-major, len p²) in O(n·p): row k of Bᵀ selects column k's states, so
// the p right-hand sides of each block-local transposed solve come straight
// from the packed Cᵀ rows. For a 2×2 block the bilinear form collapses to
//
//	bᵀ·(Aᵀblk − θI)⁻¹·c = (d·(b₁c₀ + b₂c₁) + ω·(b₁c₁ − b₂c₀)) / (d² + ω²)
//
// with d = σ − θ, costing one complex multiply per (block, port) pair.
func (m *Model) BTResolventCT(dst []complex128, theta complex128) error {
	pk := m.packKernels()
	if pk.backend == BackendSparse {
		return pk.sparseBTResolventCT(dst, theta)
	}
	p := pk.p
	for i := range dst[:p*p] {
		dst[i] = 0
	}
	for i, off := range pk.off1 {
		d := complex(pk.sig1[i], 0) - theta
		if d == 0 {
			return mat.ErrSingular
		}
		id := complex(pk.b11[i], 0) / d
		k := int(pk.col1[i])
		out := dst[k*p : (k+1)*p]
		row := pk.ct[int(off)*p : (int(off)+1)*p]
		for r, cv := range row {
			out[r] += scmul(cv, id)
		}
	}
	for i, off := range pk.off2 {
		w := pk.om2[i]
		d := complex(pk.sig2[i], 0) - theta
		det := d*d + complex(w*w, 0)
		if det == 0 {
			return mat.ErrSingular
		}
		idet := 1 / det
		b1, b2 := pk.b21[i], pk.b22[i]
		k := int(pk.col2[i])
		out := dst[k*p : (k+1)*p]
		row0 := pk.ct[int(off)*p : (int(off)+1)*p]
		row1 := pk.ct[(int(off)+1)*p : (int(off)+2)*p]
		dr, di := real(d), imag(d)
		for r := 0; r < p; r++ {
			c0, c1 := row0[r], row1[r]
			u := b1*c0 + b2*c1
			v := b1*c1 - b2*c0
			out[r] += complex(dr*u+w*v, di*u) * idet
		}
	}
	return nil
}
