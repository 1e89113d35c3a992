package hamiltonian

import "repro/internal/statespace"

// The declarations in this file do nothing. The benchmark module
// (perfbench) is their only user: it compiles against them and reads their
// counters, which are always zero now that every shift is factored once and
// no factor or operator is cached. They go, with this file, when perfbench
// stops naming them.

// NewOptions is the option set of NewWith. It has no fields.
type NewOptions struct{}

// NewWith is New.
func NewWith(m *statespace.Model, rep Representation, _ NewOptions) (*Op, error) {
	return New(m, rep)
}

// CacheStats is a snapshot of shift-cache traffic; always zero.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// ShiftCache holds nothing.
type ShiftCache struct{}

// Stats returns zero counters. Safe on nil.
func (*ShiftCache) Stats() CacheStats { return CacheStats{} }

// OpCache holds nothing; passivity ignores it.
type OpCache struct{}

// NewOpCache returns an empty OpCache; the capacity is ignored.
func NewOpCache(int) *OpCache { return &OpCache{} }

// ShiftCache returns an empty ShiftCache.
func (*OpCache) ShiftCache() *ShiftCache { return &ShiftCache{} }

// OpCacheStats returns zero counters.
func (*Op) OpCacheStats() CacheStats { return CacheStats{} }
