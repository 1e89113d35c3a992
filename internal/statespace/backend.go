package statespace

// Backend names the kernel implementation that executes the structured-
// operator surface (CApply*/CSolveShifted*/CResolventB*). The dispatcher
// picks it from the model's structure (resolveBackend). All backends
// implement the same contract against the same Model; they differ only in
// the storage and loop structure of the C-touching kernels. For any fixed
// backend the kernels are deterministic and bit-identical across worker
// counts; cross-backend results agree to round-off (pinned at 1e-12 by the
// property tests), not bit-exactly, because the sparse loops skip the
// structural zeros the dense loops accumulate.
type Backend int32

const (
	// BackendPackedDense is the flat packed-dense kernel family
	// (packed.go): C stored dense row-major both ways. It runs the
	// paper's Table-I models, whose C is fully dense. The values start at
	// one so that encoded reports keep their historical numbering.
	BackendPackedDense Backend = iota + 1
	// BackendSparse is the CSR kernel family (sparse.go): C and Cᵀ stored
	// compressed, so applies and SMW panel setup cost O(nnz) instead of
	// O(n·p). It runs large models with port-local residues.
	BackendSparse
)

// String names the backend for reports and bench output.
func (b Backend) String() string {
	switch b {
	case BackendPackedDense:
		return "packed-dense"
	case BackendSparse:
		return "sparse"
	default:
		return "unknown"
	}
}

// sparseMinOrder is the smallest dynamic order at which the dispatcher
// will consider the sparse backend: below it the dense kernels win on
// constant factors regardless of sparsity.
const sparseMinOrder = 512

// ActiveBackend returns the backend executing kernels for the model (see
// resolveBackend).
func (m *Model) ActiveBackend() Backend { return m.packKernels().backend }

// nnzC counts the structurally non-zero entries of the global C matrix.
func (m *Model) nnzC() int {
	nnz := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		mOrd := col.Order()
		for i := 0; i < m.P; i++ {
			ri := col.C.Row(i)
			for j := 0; j < mOrd; j++ {
				if ri[j] != 0 {
					nnz++
				}
			}
		}
	}
	return nnz
}

// resolveBackend is the dispatcher: sparse iff the order clears
// sparseMinOrder and C is at most ¼ structurally dense, packed-dense
// otherwise. The rule is a pure function of the model's structure, so the
// same model resolves to the same backend on every host and worker count,
// and the choice can change only when InvalidateKernels bumps the kernel
// epoch.
func (m *Model) resolveBackend() Backend {
	n := m.Order()
	if n >= sparseMinOrder && 4*m.nnzC() <= m.P*n {
		return BackendSparse
	}
	return BackendPackedDense
}
