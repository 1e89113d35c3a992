package passivity

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// fullPathTwin returns a copy of the reciprocal model m realizing the same
// H(s) with column 0's blocks listed in reverse order — a state
// permutation. Reciprocity detection is structural and wants every column
// to list its poles in one order, so hamiltonian.New keeps the twin on the
// full 2n×2n path. It is the in-package way to run the full path on a
// reciprocal transfer function now that no option selects the path.
func fullPathTwin(t *testing.T, m *statespace.Model) *statespace.Model {
	t.Helper()
	tw := m.Clone()
	src, dst := &m.Cols[0], &tw.Cols[0]
	starts := make([]int, len(src.Blocks))
	for i, off := 1, 0; i < len(src.Blocks); i++ {
		off += src.Blocks[i-1].Size
		starts[i] = off
	}
	c := mat.NewDense(m.P, src.Order())
	off := 0
	for i := len(src.Blocks) - 1; i >= 0; i-- {
		b := src.Blocks[i]
		dst.Blocks[len(src.Blocks)-1-i] = b
		for r := 0; r < m.P; r++ {
			for j := 0; j < b.Size; j++ {
				c.Set(r, off+j, src.C.At(r, starts[i]+j))
			}
		}
		off += b.Size
	}
	dst.C = c
	if tw.Reciprocal(0) {
		t.Fatal("block-reversed twin still passes reciprocity detection")
	}
	return tw
}

// TestHalfPathMatchesFullOnReciprocalCases characterizes scaled-down
// reciprocal Table-I variants twice — on the half-size squared path, and
// on the full 2n×2n path through fullPathTwin — and requires the same
// crossing count with frequencies agreeing within 1e-9·ω_max. The two
// legs solve different eigenproblems (λ vs μ = λ²), so agreement is to
// round-off, not bit-exact.
func TestHalfPathMatchesFullOnReciprocalCases(t *testing.T) {
	for _, spec := range statespace.ReciprocalTableICases() {
		if spec.P > 20 {
			continue // keep unit-test generation cost bounded
		}
		spec.N = 3 * spec.P // shrink: 3 states per column at full port count
		m, err := statespace.BuildCase(spec)
		if err != nil {
			t.Fatalf("case %d: %v", spec.ID, err)
		}
		if !m.Reciprocal(0) {
			t.Fatalf("case %d: generated model is not bit-exactly reciprocal", spec.ID)
		}
		leg := func(m *statespace.Model) *Report {
			rep, err := Characterize(m, charOpts())
			if err != nil {
				t.Fatalf("case %d: %v", spec.ID, err)
			}
			return rep
		}
		full := leg(fullPathTwin(t, m))
		half := leg(m)
		if full.HalfPath {
			t.Fatalf("case %d: full-path twin reports HalfPath", spec.ID)
		}
		if !half.HalfPath {
			t.Fatalf("case %d: the half path was not engaged on a reciprocal model", spec.ID)
		}
		if len(full.Crossings) != len(half.Crossings) {
			t.Fatalf("case %d: %d crossings on the full path vs %d on the half path\nfull: %v\nhalf: %v",
				spec.ID, len(full.Crossings), len(half.Crossings), full.Crossings, half.Crossings)
		}
		tol := 1e-9 * full.OmegaMax
		for k := range full.Crossings {
			if d := math.Abs(full.Crossings[k] - half.Crossings[k]); d > tol {
				t.Fatalf("case %d: crossing %d differs by %.3e (> %.3e): full %v vs half %v",
					spec.ID, k, d, tol, full.Crossings[k], half.Crossings[k])
			}
		}
	}
}

// TestBackendBitIdentityAcrossThreads pins the determinism contract of
// the sparse backend at the size where the dispatcher picks it: a banded
// model at n ≥ 512 must auto-resolve to CSR, its crossings must be
// bit-identical across worker counts {1, 2, 8}, and σ sampling must
// confirm them.
func TestBackendBitIdentityAcrossThreads(t *testing.T) {
	m, err := statespace.Generate(53, statespace.GenOptions{
		Ports: 8, Order: 512, TargetPeak: 1.05, GridPoints: 100,
		PortsPerColumn: 1, // one port per column: C is 1/8 dense
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Report
	for _, threads := range []int{1, 2, 8} {
		o := charOpts()
		o.Core.Threads = threads
		rep, err := Characterize(m, o)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if rep.Backend != statespace.BackendSparse {
			t.Fatalf("threads=%d: report says %v, want sparse", threads, rep.Backend)
		}
		if ref == nil {
			ref = rep
			continue
		}
		if len(rep.Crossings) != len(ref.Crossings) {
			t.Fatalf("threads=%d: %d crossings vs %d at the reference config",
				threads, len(rep.Crossings), len(ref.Crossings))
		}
		for k := range rep.Crossings {
			if rep.Crossings[k] != ref.Crossings[k] {
				t.Fatalf("threads=%d: crossing %d not bit-identical: %v vs %v",
					threads, k, rep.Crossings[k], ref.Crossings[k])
			}
		}
	}
	if len(ref.Crossings) == 0 {
		t.Fatal("test model produced no crossings; the bit-identity matrix asserted nothing")
	}
	if err := VerifyBySampling(m, ref, 0); err != nil {
		t.Fatalf("sparse-backend crossings fail the sampling check: %v", err)
	}
}
