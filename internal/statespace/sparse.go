package statespace

import "repro/internal/mat"

// Sparse (CSR) variants of the C-touching kernels. The A/B kernels are
// already O(n) regardless of backend; what distinguishes the backends is
// how the global p×n residue matrix C is stored and streamed. Under
// BackendSparse both orientations are compressed:
//
//   - crPtr/crIdx/crVal: C by rows (one row per port), used by CApplyC;
//   - ctPtr/ctIdx/ctVal: Cᵀ by rows (one row per state), used by CApplyCT
//     and by the SMW resolvent-panel kernels, whose per-block scatter reads
//     exactly one Cᵀ row per state.
//
// Entries within a row are stored in ascending column order, so every
// sparse accumulation visits the same terms in the same order as its dense
// counterpart minus the structural zeros. The dense loops add those zeros
// as +0.0 terms, which cannot change a finite float64 sum except for the
// sign of an exact zero — hence the cross-backend property tests pin
// agreement at 1e-12 rather than bit-identity, while within the sparse
// backend every kernel remains exactly deterministic.

// buildCSR populates the packed CSR arrays from the column residues in two
// passes (count, fill), leaving the dense c/ct storage nil.
func (m *Model) buildCSR(pk *packed) {
	n, p := pk.n, pk.p
	crPtr := make([]int32, p+1)
	ctPtr := make([]int32, n+1)
	off := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < p; i++ {
			ri := col.C.Row(i)
			for j := 0; j < mOrd; j++ {
				if ri[j] != 0 {
					crPtr[i+1]++
					ctPtr[off+j+1]++
				}
			}
		}
		off += mOrd
	}
	for i := 0; i < p; i++ {
		crPtr[i+1] += crPtr[i]
	}
	for j := 0; j < n; j++ {
		ctPtr[j+1] += ctPtr[j]
	}
	nnz := int(crPtr[p])
	pk.crPtr, pk.ctPtr = crPtr, ctPtr
	pk.crIdx = make([]int32, nnz)
	pk.crVal = make([]float64, nnz)
	pk.ctIdx = make([]int32, nnz)
	pk.ctVal = make([]float64, nnz)
	crFill := append([]int32(nil), crPtr[:p]...)
	ctFill := append([]int32(nil), ctPtr[:n]...)
	off = 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < p; i++ {
			ri := col.C.Row(i)
			for j := 0; j < mOrd; j++ {
				v := ri[j]
				if v == 0 {
					continue
				}
				gj := off + j
				s := crFill[i]
				pk.crIdx[s], pk.crVal[s] = int32(gj), v
				crFill[i] = s + 1
				t := ctFill[gj]
				pk.ctIdx[t], pk.ctVal[t] = int32(i), v
				ctFill[gj] = t + 1
			}
		}
		off += mOrd
	}
}

// sparseApplyC computes y = C·x from the CSR rows of C.
func (pk *packed) sparseApplyC(y, x []complex128) {
	for i := 0; i < pk.p; i++ {
		var re, im float64
		for t := pk.crPtr[i]; t < pk.crPtr[i+1]; t++ {
			xj := x[pk.crIdx[t]]
			cv := pk.crVal[t]
			re += cv * real(xj)
			im += cv * imag(xj)
		}
		y[i] = complex(re, im)
	}
}

// sparseApplyCT computes y = Cᵀ·u from the CSR rows of Cᵀ.
func (pk *packed) sparseApplyCT(y, u []complex128) {
	for j := 0; j < pk.n; j++ {
		var re, im float64
		for t := pk.ctPtr[j]; t < pk.ctPtr[j+1]; t++ {
			ui := u[pk.ctIdx[t]]
			cv := pk.ctVal[t]
			re += cv * real(ui)
			im += cv * imag(ui)
		}
		y[j] = complex(re, im)
	}
}

// sparseResolventB is the CSR variant of CResolventB: the block-local
// solves are unchanged; the rank-m_k column update scatters through the
// non-zero Cᵀ entries of each block state, costing O(nnz) per panel.
func (pk *packed) sparseResolventB(dst []complex128, theta complex128) error {
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
		for t := pk.ctPtr[off]; t < pk.ctPtr[off+1]; t++ {
			cv := pk.ctVal[t]
			dst[int(pk.ctIdx[t])*p+k] += complex(cv*r0, cv*i0)
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
		for t := pk.ctPtr[off]; t < pk.ctPtr[off+1]; t++ {
			cv := pk.ctVal[t]
			dst[int(pk.ctIdx[t])*p+k] += complex(cv*r0, cv*i0)
		}
		for t := pk.ctPtr[off+1]; t < pk.ctPtr[off+2]; t++ {
			cv := pk.ctVal[t]
			dst[int(pk.ctIdx[t])*p+k] += complex(cv*r1, cv*i1)
		}
	}
	return nil
}

// sparseBTResolventCT is the CSR variant of BTResolventCT: row k of the
// output gathers the bilinear block forms over the non-zero Cᵀ entries.
func (pk *packed) sparseBTResolventCT(dst []complex128, theta complex128) error {
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
		out := dst[int(pk.col1[i])*p : (int(pk.col1[i])+1)*p]
		for t := pk.ctPtr[off]; t < pk.ctPtr[off+1]; t++ {
			out[pk.ctIdx[t]] += scmul(pk.ctVal[t], id)
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
		out := dst[int(pk.col2[i])*p : (int(pk.col2[i])+1)*p]
		dr, di := real(d), imag(d)
		// Split the dense bilinear form by Cᵀ row: the c0 (state off) and
		// c1 (state off+1) contributions accumulate separately over each
		// row's non-zeros.
		for t := pk.ctPtr[off]; t < pk.ctPtr[off+1]; t++ {
			c0 := pk.ctVal[t]
			u, v := b1*c0, -b2*c0
			out[pk.ctIdx[t]] += complex(dr*u+w*v, di*u) * idet
		}
		for t := pk.ctPtr[off+1]; t < pk.ctPtr[off+2]; t++ {
			c1 := pk.ctVal[t]
			u, v := b2*c1, b1*c1
			out[pk.ctIdx[t]] += complex(dr*u+w*v, di*u) * idet
		}
	}
	return nil
}
