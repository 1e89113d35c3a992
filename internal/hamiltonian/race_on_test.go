//go:build race

package hamiltonian

// raceEnabled reports a -race build. The race runtime drops sync.Pool
// items on purpose, so pool-backed steady-state allocation counts do not
// hold under it.
const raceEnabled = true
