package arnoldi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// eagerLift lifts every Ritz vector of f through its basis, the way Ritz
// extraction did before vectors were lifted on demand.
func eagerLift[T scalar](t *testing.T, f *factorization[T]) [][]complex128 {
	t.Helper()
	_, vecs, err := mat.CEig(f.H)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]complex128, f.Steps)
	for idx := range out {
		x := make([]complex128, len(f.V[0]))
		for i := 0; i < f.Steps; i++ {
			f.lane.lift(x, vecs.At(i, idx), f.V[i])
		}
		out[idx] = x
	}
	return out
}

func checkLazyLift[T scalar](t *testing.T, f *factorization[T]) {
	t.Helper()
	want := eagerLift(t, f)
	pairs, err := f.RitzPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(want) {
		t.Fatalf("%d Ritz pairs, want %d", len(pairs), len(want))
	}
	// Lift out of order: each vector depends only on its own index.
	for idx := len(pairs) - 1; idx >= 0; idx-- {
		got := f.RitzVector(idx)
		for a := range got {
			g, w := got[a], want[idx][a]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("Ritz vector %d entry %d: %v, want %v", idx, a, g, w)
			}
		}
	}
}

func TestRitzVectorMatchesEagerLift(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 40
	t.Run("complex", func(t *testing.T) {
		f, err := run[complex128](complexLane{denseOp{randomCMat(rng, n)}}, RandomStart(rng, n), nil, Config{MaxDim: 18, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		checkLazyLift(t, f)
	})
	t.Run("real", func(t *testing.T) {
		l := realLane{newDenseRealShiftInv(t, randomRealMat(rng, n), 0.2)}
		f, err := run[float64](l, l.randomStart(rng), nil, Config{MaxDim: 18, Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		checkLazyLift(t, f)
	})
}

// restartWork is what one restart of singleShift asked of its lane.
type restartWork struct {
	applies, lifts, locks int
}

// countingLane wraps a lane and records, per restart (a restart begins
// with its random start vector), the operator applies, the basis-vector
// lift steps and the locked Ritz vectors.
type countingLane[T scalar] struct {
	lane[T]
	work *[]restartWork
}

func (c countingLane[T]) cur() *restartWork { return &(*c.work)[len(*c.work)-1] }

func (c countingLane[T]) randomStart(rng *rand.Rand) []T {
	*c.work = append(*c.work, restartWork{})
	return c.lane.randomStart(rng)
}

func (c countingLane[T]) apply(y, x []T) error {
	c.cur().applies++
	return c.lane.apply(y, x)
}

func (c countingLane[T]) lift(x []complex128, y complex128, v []T) {
	c.cur().lifts++
	c.lane.lift(x, y, v)
}

func (c countingLane[T]) lock(locked [][]T, x []complex128) [][]T {
	c.cur().locks++
	return c.lane.lock(locked, x)
}

// checkLiftBudget asserts that every restart lifted at most one vector
// per locked Ritz pair (converged or ghost) plus the warm start, and that
// the budget is binding: some restart extracted more Ritz pairs than that,
// and some locked a converged one.
func checkLiftBudget(t *testing.T, work []restartWork) {
	t.Helper()
	binding := false
	locks := 0
	for r, w := range work {
		locks += w.locks
		if w.applies == 0 {
			if w.lifts != 0 {
				t.Fatalf("restart %d: %d lift steps without a factorization", r, w.lifts)
			}
			continue
		}
		// Each lifted vector is one lift step per basis vector, and a
		// sweep of k steps has k basis vectors in its Ritz extraction.
		if w.lifts%w.applies != 0 {
			t.Fatalf("restart %d: %d lift steps over a %d-step basis", r, w.lifts, w.applies)
		}
		if vecs := w.lifts / w.applies; vecs > w.locks+1 {
			t.Fatalf("restart %d: lifted %d Ritz vectors, want ≤ %d (%d locked + 1)", r, vecs, w.locks+1, w.locks)
		}
		if w.applies > w.locks+1 {
			binding = true
		}
	}
	if !binding || locks == 0 {
		t.Fatalf("budget not exercised: binding=%v, %d locked vectors in %d restarts", binding, locks, len(work))
	}
}

func TestSingleShiftLiftsOnlyConsumedVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	params := SingleShiftParams{NWanted: 6, MaxDim: 25, Seed: 9}
	t.Run("complex", func(t *testing.T) {
		var work []restartWork
		inv := ringInv(t)
		if _, err := singleShift[complex128](countingLane[complex128]{complexLane{inv}, &work}, inv.Theta(), 1.0, params); err != nil {
			t.Fatal(err)
		}
		checkLiftBudget(t, work)
	})
	t.Run("real", func(t *testing.T) {
		var work []restartWork
		inv := newDenseRealShiftInv(t, randomRealMat(rng, 80), 0.3)
		if _, err := singleShift[float64](countingLane[float64]{realLane{inv}, &work}, inv.Theta(), 1.0, params); err != nil {
			t.Fatal(err)
		}
		checkLiftBudget(t, work)
	})
}
