package hamiltonian

import (
	"math"
	"runtime"
	"sync"
	"weak"

	"repro/internal/statespace"
)

// opCacheCap bounds the OpCache map; crossing it drops every entry (the
// attached ShiftCache's stale factorizations then simply age out of its
// LRU). A fleet rarely has more than a handful of distinct live models, so
// the reset is a safety valve, not a working-set policy.
const opCacheCap = 64

// OpCache shares one Hamiltonian operator per (model, representation)
// across concurrent jobs. New balances the model and builds the 2p×2p
// coupling on every call, and a fresh Op means a fresh packed-kernel build
// and an empty factorization identity — so N fleet jobs characterizing the
// same model would each redo that setup and share nothing. Get hands all
// of them the same Op (safe: an Op is read-only after construction) with
// the cache's single ShiftCache attached, so their shift factorizations
// pool too.
//
// Staleness: the Op embeds a balanced CLONE taken at construction, which
// an in-place mutation of the source model (enforcement's residue
// perturbations) does not touch. Get therefore records the source model's
// kernel epoch at build time and rebuilds when it has moved — the same
// epoch discipline the ShiftCache keys on.
//
// Lifetime: entries hold their source model only weakly, so a cache that
// outlives many jobs (the fleet engine's, or a benchmark's enforce loop) does
// not keep each job's private model clone — and through it the entry's Op —
// reachable. A cleanup attached to the model on first insertion evicts the
// entry once the model has been collected.
type OpCache struct {
	mu     sync.Mutex
	shifts *ShiftCache
	ops    map[opCacheKey]opCacheEntry
}

// opCacheKey includes the half-path options: two jobs asking for the same
// model with different path settings (e.g. an A/B benchmark forcing the
// full path against an auto half path) must get distinct operators.
type opCacheKey struct {
	model   weak.Pointer[statespace.Model]
	rep     Representation
	half    HalfMode
	halfTol uint64 // math.Float64bits of NewOptions.HalfTol
}

type opCacheEntry struct {
	op    *Op
	epoch uint64
}

// NewOpCache builds an operator cache whose Ops share one ShiftCache of
// the given capacity.
func NewOpCache(shiftCapacity int) *OpCache {
	return &OpCache{
		shifts: NewShiftCache(shiftCapacity),
		ops:    make(map[opCacheKey]opCacheEntry),
	}
}

// ShiftCache returns the shared factorization cache attached to every Op
// the cache hands out.
func (oc *OpCache) ShiftCache() *ShiftCache { return oc.shifts }

// StatsFor attributes the shared cache's traffic to the operator held for
// (m, rep): the hits and misses its own ShiftInvert calls generated. A
// pure peek — it never builds an operator — returning zeros when the cache
// holds none (never characterized, or rebuilt after an epoch move).
func (oc *OpCache) StatsFor(m *statespace.Model, rep Representation) CacheStats {
	return oc.StatsForWith(m, rep, NewOptions{})
}

// StatsForWith is StatsFor for an operator requested with explicit path
// options.
func (oc *OpCache) StatsForWith(m *statespace.Model, rep Representation, opts NewOptions) CacheStats {
	oc.mu.Lock()
	e, ok := oc.ops[opKeyFor(m, rep, opts)]
	oc.mu.Unlock()
	if !ok {
		return CacheStats{}
	}
	return e.op.OpCacheStats()
}

func opKeyFor(m *statespace.Model, rep Representation, opts NewOptions) opCacheKey {
	return opCacheKey{
		model:   weak.Make(m),
		rep:     rep,
		half:    opts.Half,
		halfTol: math.Float64bits(opts.HalfTol),
	}
}

// Get returns the shared operator for (m, rep) with default path options,
// building it on first use or after m's kernel epoch has moved. Errors are
// those of New and are not memoized.
func (oc *OpCache) Get(m *statespace.Model, rep Representation) (*Op, error) {
	return oc.GetWith(m, rep, NewOptions{})
}

// GetWith is Get for an operator built with explicit path options.
func (oc *OpCache) GetWith(m *statespace.Model, rep Representation, opts NewOptions) (*Op, error) {
	k := opKeyFor(m, rep, opts)
	epoch := m.KernelEpoch()
	oc.mu.Lock()
	if e, ok := oc.ops[k]; ok && e.epoch == epoch {
		oc.mu.Unlock()
		return e.op, nil
	}
	oc.mu.Unlock()
	// Build outside the lock: New does real work (balancing, coupling
	// inversion) and must not serialize unrelated models. A racing build of
	// the same key wastes one setup; last writer wins and both Ops are
	// valid.
	op, err := NewWith(m, rep, opts)
	if err != nil {
		return nil, err
	}
	op.SetShiftCache(oc.shifts)
	oc.mu.Lock()
	if len(oc.ops) >= opCacheCap {
		oc.ops = make(map[opCacheKey]opCacheEntry)
	}
	if _, ok := oc.ops[k]; !ok {
		runtime.AddCleanup(m, oc.evict, k)
	}
	oc.ops[k] = opCacheEntry{op: op, epoch: epoch}
	oc.mu.Unlock()
	return op, nil
}

// evict drops the entry of a collected model. It runs on the runtime's
// cleanup goroutine once the model is unreachable; a key whose entry has
// already gone (the capacity reset) is a no-op.
func (oc *OpCache) evict(k opCacheKey) {
	oc.mu.Lock()
	delete(oc.ops, k)
	oc.mu.Unlock()
}
