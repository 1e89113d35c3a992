package passivity

import (
	"math"
	"testing"

	"repro/internal/hamiltonian"
	"repro/internal/statespace"
)

// TestHalfPathMatchesFullOnReciprocalCases characterizes scaled-down
// reciprocal Table-I variants twice — full 2n×2n path forced with HalfOff
// vs the half-size squared path under HalfAuto — and requires the same
// crossing count with frequencies agreeing within 1e-9·ω_max. The two
// legs solve different eigenproblems (λ vs μ = λ²), so agreement is to
// round-off, not bit-exact; 1e-9·ω_max is the cross-path pin the bench
// suite also enforces.
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
		leg := func(half hamiltonian.HalfMode) *Report {
			o := charOpts()
			o.Half = half
			rep, err := Characterize(m, o)
			if err != nil {
				t.Fatalf("case %d (mode %v): %v", spec.ID, half, err)
			}
			return rep
		}
		full := leg(hamiltonian.HalfOff)
		half := leg(hamiltonian.HalfAuto)
		if full.HalfPath {
			t.Fatalf("case %d: HalfOff leg reports HalfPath", spec.ID)
		}
		if !half.HalfPath {
			t.Fatalf("case %d: HalfAuto leg did not engage the half path on a reciprocal model", spec.ID)
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

// TestBackendBitIdentityAcrossThreadsAndCache pins the determinism
// contract of the sparse backend at the size where the dispatcher picks
// it: a banded model at n ≥ 512 must auto-resolve to CSR, its crossings
// must be bit-identical across worker counts {1, 2, 8} with the shift-
// factorization cache off and on, and σ sampling must confirm them.
func TestBackendBitIdentityAcrossThreadsAndCache(t *testing.T) {
	m, err := statespace.Generate(53, statespace.GenOptions{
		Ports: 8, Order: 512, TargetPeak: 1.05, GridPoints: 100,
		PortsPerColumn: 1, // one port per column: C is 1/8 dense
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref *Report
	for _, threads := range []int{1, 2, 8} {
		for _, cacheSize := range []int{-1, 0} { // off, default LRU
			o := charOpts()
			o.Core.Threads = threads
			o.Core.ShiftCacheSize = cacheSize
			rep, err := Characterize(m, o)
			if err != nil {
				t.Fatalf("threads=%d cache=%d: %v", threads, cacheSize, err)
			}
			if rep.Backend != statespace.BackendSparse {
				t.Fatalf("threads=%d cache=%d: report says %v, want sparse", threads, cacheSize, rep.Backend)
			}
			if ref == nil {
				ref = rep
				continue
			}
			if len(rep.Crossings) != len(ref.Crossings) {
				t.Fatalf("threads=%d cache=%d: %d crossings vs %d at the reference config",
					threads, cacheSize, len(rep.Crossings), len(ref.Crossings))
			}
			for k := range rep.Crossings {
				if rep.Crossings[k] != ref.Crossings[k] {
					t.Fatalf("threads=%d cache=%d: crossing %d not bit-identical: %v vs %v",
						threads, cacheSize, k, rep.Crossings[k], ref.Crossings[k])
				}
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
