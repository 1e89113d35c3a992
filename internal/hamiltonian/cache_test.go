package hamiltonian

import (
	"math/rand"
	"sync"
	"testing"
)

// applyBits runs one ShiftOp apply on a fixed vector and returns the raw
// output — the bit-level fingerprint the cache equivalence tests compare.
func applyBits(t *testing.T, so *ShiftOp, x []complex128) []complex128 {
	t.Helper()
	y := make([]complex128, len(x))
	if err := so.Apply(y, x); err != nil {
		t.Fatal(err)
	}
	return y
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShiftCacheHitBitIdentical: a cached ShiftInvert must hand back an
// operator whose applies are bit-for-bit those of the uncached path, and
// the cache counters must reflect exactly one factorization.
func TestShiftCacheHitBitIdentical(t *testing.T) {
	m := testModel(t, 21, 3, 18, 1.05)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	theta := complex(0, 0.4*m.MaxPoleMagnitude())
	rng := rand.New(rand.NewSource(5))
	x := randCVec(rng, op.Dim())

	// Uncached reference first (no cache attached yet).
	ref, err := op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	want := applyBits(t, ref, x)
	ref.Release()

	cache := NewShiftCache(8)
	op.SetShiftCache(cache)
	for trial := 0; trial < 3; trial++ {
		so, err := op.ShiftInvert(theta)
		if err != nil {
			t.Fatal(err)
		}
		if got := applyBits(t, so, x); !sameBits(got, want) {
			t.Fatalf("trial %d: cached apply differs from uncached apply", trial)
		}
		so.Release()
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss + 2 hits", st)
	}
	if ost := op.OpCacheStats(); ost.Misses != 1 || ost.Hits != 2 {
		t.Fatalf("per-op stats = %+v, want 1 miss + 2 hits", ost)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

// TestShiftCacheTinyCapacityEvicts: a capacity-1 cache cycling through
// several shifts must evict, stay at capacity, and still produce
// bit-identical applies on every shift (evicted or not).
func TestShiftCacheTinyCapacityEvicts(t *testing.T) {
	m := testModel(t, 22, 2, 14, 1.05)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	wmax := m.MaxPoleMagnitude()
	thetas := []complex128{
		complex(0, 0.2*wmax), complex(0, 0.5*wmax), complex(0, 0.9*wmax),
	}
	rng := rand.New(rand.NewSource(6))
	x := randCVec(rng, op.Dim())

	want := make([][]complex128, len(thetas))
	for i, th := range thetas {
		so, err := op.ShiftInvert(th)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = applyBits(t, so, x)
		so.Release()
	}

	cache := NewShiftCache(1)
	op.SetShiftCache(cache)
	for round := 0; round < 2; round++ {
		for i, th := range thetas {
			so, err := op.ShiftInvert(th)
			if err != nil {
				t.Fatal(err)
			}
			if got := applyBits(t, so, x); !sameBits(got, want[i]) {
				t.Fatalf("round %d shift %d: apply differs after eviction churn", round, i)
			}
			so.Release()
			if n := cache.Len(); n > 1 {
				t.Fatalf("capacity-1 cache holds %d entries after release", n)
			}
		}
	}
	st := cache.Stats()
	// Every access misses (each shift evicts the previous one), so all 6 are
	// misses and 5 of the inserts evicted a predecessor.
	if st.Misses != 6 || st.Hits != 0 || st.Evictions != 5 {
		t.Fatalf("stats = %+v, want 6 misses / 0 hits / 5 evictions", st)
	}
}

// TestShiftCacheHitZeroAllocs: after the shift-op pool is warm, a cache hit
// (ShiftInvert + Release) performs zero allocations — the factored state is
// shared and the ShiftOp shell is pooled.
func TestShiftCacheHitZeroAllocs(t *testing.T) {
	m := testModel(t, 23, 4, 24, 0.95)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	op.EnsureShiftCache(4)
	theta := complex(0, 0.5*m.MaxPoleMagnitude())
	// Warm: first call factors (miss) and seeds the shiftPool on Release.
	so, err := op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	so.Release()
	if avg := testing.AllocsPerRun(100, func() {
		so, err := op.ShiftInvert(theta)
		if err != nil {
			t.Fatal(err)
		}
		so.Release()
	}); avg != 0 {
		t.Fatalf("cache hit allocates %.1f objects per ShiftInvert, want 0", avg)
	}
}

// TestShiftCacheEpochInvalidation: bumping the model's kernel epoch must
// stop every stale entry from matching — post-invalidation solves factor
// fresh state bit-identical to a fresh operator on the mutated model.
func TestShiftCacheEpochInvalidation(t *testing.T) {
	base := testModel(t, 24, 2, 12, 1.05)
	op, err := New(base, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewShiftCache(8)
	op.SetShiftCache(cache)
	theta := complex(0, 0.6*base.MaxPoleMagnitude())
	rng := rand.New(rand.NewSource(7))
	x := randCVec(rng, op.Dim())

	so, err := op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	stale := applyBits(t, so, x)
	so.Release()

	// Mutate the operator's model in place — the enforcement pattern — and
	// invalidate. Op.Model is the balanced clone New made, so the mutation
	// must target it, not `base`.
	work := op.Model
	work.Cols[0].C.Set(0, 0, work.Cols[0].C.At(0, 0)*1.01)
	work.InvalidateKernels()

	so, err = op.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	got := applyBits(t, so, x)
	so.Release()
	if sameBits(got, stale) {
		t.Fatal("post-invalidation apply equals stale apply: cache served superseded kernels")
	}
	// Reference: an uncached operator sharing the mutated realization.
	ref := &Op{Model: work, Rep: op.Rep, N: op.N, P: op.P, w: op.w, id: opIDs.Add(1)}
	rso, err := ref.ShiftInvert(theta)
	if err != nil {
		t.Fatal(err)
	}
	want := applyBits(t, rso, x)
	rso.Release()
	if !sameBits(got, want) {
		t.Fatal("post-invalidation apply differs from a fresh factorization of the mutated model")
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (stale entry must not match)", st)
	}
}

// TestShiftCacheConcurrentInvalidation hammers one cached operator from
// many goroutines — ShiftInvert/Apply/Release interleaved with epoch bumps
// — and relies on -race to catch lifecycle races (pinned-entry eviction,
// publish/acquire, epoch reads). Results aren't compared here (epoch flips
// mid-flight make them timing-dependent by design); correctness of values
// is covered by the sequential tests above.
func TestShiftCacheConcurrentInvalidation(t *testing.T) {
	m := testModel(t, 25, 2, 12, 1.05)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	op.SetShiftCache(NewShiftCache(2)) // tiny: force eviction under load
	wmax := m.MaxPoleMagnitude()
	thetas := []complex128{
		complex(0, 0.2*wmax), complex(0, 0.45*wmax),
		complex(0, 0.7*wmax), complex(0, 0.95*wmax),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			x := randCVec(rng, op.Dim())
			y := make([]complex128, op.Dim())
			for iter := 0; iter < 40; iter++ {
				so, err := op.ShiftInvert(thetas[(g+iter)%len(thetas)])
				if err != nil {
					t.Error(err)
					return
				}
				if err := so.Apply(y, x); err != nil {
					t.Error(err)
					so.Release()
					return
				}
				so.Release()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		// Only the epoch moves concurrently; mutating coefficients here would
		// race with buildPacked in the solver goroutines.
		defer wg.Done()
		for i := 0; i < 20; i++ {
			op.Model.InvalidateKernels()
		}
	}()
	wg.Wait()
}
