package hamiltonian

import "repro/internal/statespace"

// The declarations in this file do nothing of their own. The benchmark
// module (perfbench) is their only user: it compiles against them, reads
// their counters, which are always zero now that every shift is factored
// once and no factor or operator is cached, and reaches the half path
// through the HalfOp view, which forwards to Op.ShiftInvertHalf. They go,
// with this file, when perfbench stops naming them.

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

// HalfOp is a view of an operator's half path; it forwards to the Op.
type HalfOp struct{ op *Op }

// Half returns the half-path view. Its ShiftInvert fails when the
// operator has no half path.
func (op *Op) Half() *HalfOp { return &HalfOp{op} }

// ShiftInvert is Op.ShiftInvertHalf.
func (h *HalfOp) ShiftInvert(tau complex128) (*HalfShiftOp, error) {
	return h.op.ShiftInvertHalf(tau)
}

// Release does nothing; the operator owns its factor and scratch.
func (*ShiftOp) Release() {}

// Release does nothing; the operator owns its factor and scratch.
func (*HalfShiftOp) Release() {}
