package hamiltonian

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/statespace"
)

func opCacheLen(oc *OpCache) int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return len(oc.ops)
}

// TestOpCacheEvictsDroppedModels: an OpCache must not keep the models it
// has served reachable. Once a job's model is dropped, the collector runs
// the model's cleanup and the entry goes; a model still in use keeps its
// entry, and Get keeps returning the same operator for it.
func TestOpCacheEvictsDroppedModels(t *testing.T) {
	oc := NewOpCache(4)
	live := testModel(t, 1, 3, 12, 0.9)
	liveOp, err := oc.Get(live, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		var dropped []*statespace.Model
		for seed := int64(2); seed < 5; seed++ {
			m := testModel(t, seed, 3, 12, 0.9)
			if _, err := oc.Get(m, Scattering); err != nil {
				t.Fatal(err)
			}
			dropped = append(dropped, m)
		}
		if n := opCacheLen(oc); n != 4 {
			t.Fatalf("cache holds %d operators for 4 live models, want 4", n)
		}
		runtime.KeepAlive(dropped)
	}()
	// Cleanups run asynchronously after the collection that finds the
	// models unreachable; poll with a bound instead of assuming one GC.
	deadline := time.Now().Add(10 * time.Second)
	for opCacheLen(oc) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("cache still holds %d operators 10 s after their models were dropped", opCacheLen(oc))
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	op, err := oc.Get(live, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if op != liveOp {
		t.Fatal("the live model's operator was evicted")
	}
	runtime.KeepAlive(live)
}
