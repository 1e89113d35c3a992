package fleet

import "repro/internal/hamiltonian"

// The declarations in this file do nothing. The benchmark module
// (perfbench) is their only user: it compiles against them, and the engine
// caches no factor or operator. They go, with this file, when perfbench
// stops naming them.

// DefaultShiftCacheSize is zero: there is no shift cache to size.
const DefaultShiftCacheSize = 0

// ShiftCacheStats returns zero counters.
func (*Engine) ShiftCacheStats() hamiltonian.CacheStats { return hamiltonian.CacheStats{} }
