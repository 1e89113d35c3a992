package hamiltonian

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
)

// ShiftCache memoizes factored shift-invert state (shiftFactor) across
// ShiftInvert calls. One cache may serve many Ops — the fleet engine
// attaches a single cache to every job so concurrent characterizations of
// the same model share factorizations.
//
// Key scheme: (op id, model kernel epoch, exact Float64bits of ϑ). The
// epoch component makes invalidation free — InvalidateKernels bumps the
// model epoch, so every entry factored against the superseded kernels
// simply stops matching and ages out of the LRU; enforcement's perturbed
// models can never be served stale panels. The shift component is the
// exact bit pattern, not a lossy rounding: two different ϑs must never
// share a factorization or the bit-identical-crossings invariant dies.
// The repeat hits the cache exists for are already exact-bit repeats:
// canonical-polish seeds are quantized to a fixed grid upstream (see
// core.canonicalPolish), and a characterization re-run on the same
// operator asks for the same sweep shifts.
//
// Eviction drops the coldest entry whenever an insert pushes the cache past
// capacity, whether or not some ShiftOp still applies its factor: a factor
// is immutable and garbage-collected, so an evicted one stays valid for
// whoever holds it, and eviction only forgets it (a later request for the
// same shift factors again).
//
// The cache measured 0 hits per job on every perfbench workload; it and
// its Stats stay only because perfbench reads them.
//
// A ShiftCache is safe for concurrent use. Concurrent misses on the same
// key are collapsed: the first caller factors, later callers wait on the
// entry's ready channel and count as hits.
type ShiftCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[shiftKey]*cacheEntry
	lru      *list.List // front = hottest; element values are *cacheEntry

	hits, misses, evictions atomic.Uint64
}

// shiftKey identifies one factorization: which operator, which kernel
// generation, which exact shift. The kernel backend needs no component of
// its own: the dispatcher derives it from the model's structure, which
// changes only under a kernel-epoch bump. HalfOps key with their own opID,
// so half- and full-path factors of the same model never collide either.
type shiftKey struct {
	opID   uint64
	epoch  uint64
	re, im uint64 // math.Float64bits of the shift
}

type cacheEntry struct {
	key  shiftKey
	elem *list.Element

	ready chan struct{} // closed once fac/err are set
	fac   *shiftFactor
	err   error
}

// NewShiftCache builds a cache holding up to capacity factorizations
// (minimum 1).
func NewShiftCache(capacity int) *ShiftCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ShiftCache{
		capacity: capacity,
		entries:  make(map[shiftKey]*cacheEntry, capacity),
		lru:      list.New(),
	}
}

// CacheStats is a snapshot of cache traffic.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// Stats returns cumulative cache-wide counters. Hits include waits on an
// in-flight factorization (no setup work performed); misses count actual
// factorizations. Kept because perfbench reads it (hamiltonian.cache_*).
func (c *ShiftCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// Len returns the number of resident entries.
func (c *ShiftCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func shiftKeyFor(op *Op, theta complex128) shiftKey {
	return shiftKey{
		opID:  op.id,
		epoch: op.Model.KernelEpoch(),
		re:    math.Float64bits(real(theta)),
		im:    math.Float64bits(imag(theta)),
	}
}

// acquire returns the entry for key, plus whether this caller must
// populate it (miss). On a hit the entry may still be in flight — wait on
// ready before touching fac/err.
func (c *ShiftCache) acquire(key shiftKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits.Add(1)
		return e, false
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.misses.Add(1)
	c.evictLocked()
	return e, true
}

// evictLocked drops the coldest entries until the cache fits capacity.
// Callers hold c.mu.
func (c *ShiftCache) evictLocked() {
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back().Value.(*cacheEntry))
		c.evictions.Add(1)
	}
}

func (c *ShiftCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	e.elem = nil
}

// discard removes a failed entry so the error is not memoized (the retry
// layer in core nudges the shift, producing a different key anyway).
func (c *ShiftCache) discard(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.elem != nil {
		c.removeLocked(e)
	}
}

// shiftInvert is the cached ShiftInvert path: look up or factor, then wrap
// the shared factor in a pooled per-caller ShiftOp. A hit performs no
// factorization work and no allocations.
func (c *ShiftCache) shiftInvert(op *Op, theta complex128) (*ShiftOp, error) {
	e, mustFactor := c.acquire(shiftKeyFor(op, theta))
	if mustFactor {
		e.fac, e.err = op.factorShift(theta)
		close(e.ready)
		op.cacheMisses.Add(1)
	} else {
		<-e.ready
		op.cacheHits.Add(1)
	}
	if e.err != nil {
		err := e.err
		c.discard(e)
		return nil, err
	}
	return op.newShiftOp(e.fac), nil
}

// shiftInvertHalf is the cached ShiftInvert path for the half-size
// operator, mirroring shiftInvert. Half-path traffic is attributed to the
// parent Op's counters — callers see one characterization's cache story
// regardless of which path served it.
func (c *ShiftCache) shiftInvertHalf(h *HalfOp, tau complex128) (*HalfShiftOp, error) {
	e, mustFactor := c.acquire(h.shiftKeyFor(tau))
	if mustFactor {
		e.fac, e.err = h.factorShift(tau)
		close(e.ready)
		h.op.cacheMisses.Add(1)
	} else {
		<-e.ready
		h.op.cacheHits.Add(1)
	}
	if e.err != nil {
		err := e.err
		c.discard(e)
		return nil, err
	}
	return h.newShiftOp(e.fac), nil
}

// SetShiftCache attaches (or, with nil, detaches) a factorization cache.
// Safe to call concurrently with solves; in-flight operators keep whatever
// factor they already hold.
func (op *Op) SetShiftCache(c *ShiftCache) { op.cache.Store(c) }

// EnsureShiftCache attaches a fresh cache of the given capacity if none is
// attached yet, and returns the attached cache. capacity < 1 is clamped.
func (op *Op) EnsureShiftCache(capacity int) *ShiftCache {
	if c := op.cache.Load(); c != nil {
		return c
	}
	c := NewShiftCache(capacity)
	if op.cache.CompareAndSwap(nil, c) {
		return c
	}
	return op.cache.Load()
}

// OpCacheStats reports cache traffic attributed to this operator (hits and
// misses seen by its own ShiftInvert calls), regardless of how many other
// operators share the cache. Zero without an attached cache. Kept because
// perfbench reads it.
func (op *Op) OpCacheStats() CacheStats {
	return CacheStats{Hits: op.cacheHits.Load(), Misses: op.cacheMisses.Load()}
}
