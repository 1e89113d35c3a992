package statespace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// modelBitsHash returns the SHA-256 of a model's float64 bits in a fixed
// order: D row-major, then per column every block (size, σ, ω, b₁, b₂) and
// the residue matrix C row-major, with each matrix preceded by its shape.
// Unlike a gob stream, whose type ids depend on what else the process has
// encoded, it depends on nothing but the model.
func modelBitsHash(m *Model) string {
	h := sha256.New()
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(m.P))
	put(uint64(m.D.Rows))
	put(uint64(m.D.Cols))
	for _, v := range m.D.Data {
		put(math.Float64bits(v))
	}
	for _, c := range m.Cols {
		put(uint64(len(c.Blocks)))
		for _, b := range c.Blocks {
			put(uint64(b.Size))
			for _, v := range []float64{b.Sigma, b.Omega, b.B1, b.B2} {
				put(math.Float64bits(v))
			}
		}
		put(uint64(c.C.Rows))
		put(uint64(c.C.Cols))
		for _, v := range c.C.Data {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins Generate's output bits for a dense, a reciprocal
// and a banded model. The hashes were taken before calibratePeak's early
// exit, so they also hold that exit to its claim of changing no bisection
// decision.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		opts GenOptions
		want string
	}{
		{"dense", 31, GenOptions{Ports: 4, Order: 40, TargetPeak: 1.05},
			"fa858669d4ae90c7acdd29d4a00cc77af37a39d39e22270c36ae98834d904f48"},
		{"reciprocal", 32, GenOptions{Ports: 4, Order: 40, TargetPeak: 1.03, Reciprocal: true},
			"e102d03f6c3cc11e06b38e12bf992fb2237fe46a106ee76ac08c06b8fed043d2"},
		{"banded", 33, GenOptions{Ports: 8, Order: 64, TargetPeak: 0.95, PortsPerColumn: 2},
			"616ac5106153abb9ff13d1e67284e22fa805eefef36ab15be18bfeaa94fadcab"},
	} {
		m, err := Generate(tc.seed, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := modelBitsHash(m); got != tc.want {
			t.Errorf("%s: model bits hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
