package passivity

import (
	"testing"

	"repro/internal/arnoldi"
	"repro/internal/core"
)

// reportsBitIdentical fails the test unless the two reports agree bit for
// bit on every field that characterization computes.
func reportsBitIdentical(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Passive != want.Passive {
		t.Fatalf("%s: Passive %v != %v", label, got.Passive, want.Passive)
	}
	if got.OmegaMax != want.OmegaMax {
		t.Fatalf("%s: OmegaMax %v != %v", label, got.OmegaMax, want.OmegaMax)
	}
	if len(got.Crossings) != len(want.Crossings) {
		t.Fatalf("%s: %d crossings != %d: %v vs %v",
			label, len(got.Crossings), len(want.Crossings), got.Crossings, want.Crossings)
	}
	for i := range got.Crossings {
		if got.Crossings[i] != want.Crossings[i] {
			t.Fatalf("%s: crossing %d: %v != %v (bit-identity)", label, i, got.Crossings[i], want.Crossings[i])
		}
	}
	if len(got.Bands) != len(want.Bands) {
		t.Fatalf("%s: %d bands != %d", label, len(got.Bands), len(want.Bands))
	}
	for i := range got.Bands {
		if got.Bands[i] != want.Bands[i] {
			t.Fatalf("%s: band %d: %+v != %+v (bit-identity)", label, i, got.Bands[i], want.Bands[i])
		}
	}
}

// TestCharacterizeThreadsInvariant: the worker count must have NO effect
// on the report.
func TestCharacterizeThreadsInvariant(t *testing.T) {
	m := genModel(t, 42, 26, 1.06)
	var want *Report
	for _, threads := range []int{1, 2, 8} {
		opts := Options{Core: core.Options{
			Threads: threads, Seed: 11,
			Arnoldi: arnoldi.SingleShiftParams{NWanted: 4, MaxDim: 40},
		}}
		rep, err := Characterize(m, opts)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if want == nil {
			want = rep
			if rep.Passive {
				t.Fatal("construction drifted: reference model is passive, test would be vacuous")
			}
			continue
		}
		reportsBitIdentical(t, "threads="+itoa(threads), rep, want)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
