package core

import (
	"context"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/arnoldi"
)

// ckCollector accumulates checkpoint events. Callbacks run on worker
// goroutines outside the pool lock, so observation order is arbitrary;
// sorted() restores sequence order.
type ckCollector struct {
	mu  sync.Mutex
	cks []Checkpoint
}

func (c *ckCollector) add(ck Checkpoint) {
	c.mu.Lock()
	c.cks = append(c.cks, ck)
	c.mu.Unlock()
}

func (c *ckCollector) sorted() []Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Checkpoint(nil), c.cks...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// commits counts the checkpoints that committed a shift (Out != nil).
func (c *ckCollector) commits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ck := range c.cks {
		if ck.Out != nil {
			n++
		}
	}
	return n
}

// runWithCheckpoints solves one case on a fresh pool with checkpoint
// collection and returns the result plus the sequence-ordered events.
func runWithCheckpoints(t *testing.T, seed int64, ports, order int, peak float64) (*Result, []Checkpoint) {
	t.Helper()
	op := buildOp(t, seed, ports, order, peak)
	var col ckCollector
	pool := NewPool(3)
	defer pool.Close()
	j, err := pool.Submit(context.Background(), op, Options{
		Seed:       7,
		Arnoldi:    arnoldi.SingleShiftParams{MaxDim: 40},
		Checkpoint: col.add,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return res, col.sorted()
}

// foldPrefix folds checkpoints 0..n-1 into a resume state.
func foldPrefix(cks []Checkpoint, n int) *ResumeState {
	rs := &ResumeState{}
	for _, ck := range cks[:n] {
		rs.Apply(ck)
	}
	return rs
}

// TestCheckpointSequence pins the emission contract: one Seq-0 submission
// snapshot with no Out, then exactly one Out-carrying checkpoint per
// committed shift, contiguous sequence numbers, counters in lockstep, and
// an empty uncovered set at the final commit.
func TestCheckpointSequence(t *testing.T) {
	res, cks := runWithCheckpoints(t, 61, 2, 24, 1.06)
	if len(cks) < 2 {
		t.Fatalf("expected at least 2 checkpoints, got %d", len(cks))
	}
	for i, ck := range cks {
		if ck.Seq != i {
			t.Fatalf("checkpoint %d has Seq %d (gap or duplicate)", i, ck.Seq)
		}
		if ck.Completed != i {
			t.Fatalf("checkpoint Seq %d: Completed %d, want %d (cold run)", ck.Seq, ck.Completed, i)
		}
		if (ck.Out == nil) != (i == 0) {
			t.Fatalf("checkpoint Seq %d: Out nil-ness wrong (want nil only at Seq 0)", ck.Seq)
		}
		if ck.OmegaMax != res.OmegaMax {
			t.Fatalf("checkpoint Seq %d: OmegaMax %v != result %v", ck.Seq, ck.OmegaMax, res.OmegaMax)
		}
	}
	if n := len(cks) - 1; n != res.Stats.ShiftsProcessed {
		t.Fatalf("%d shift checkpoints for %d processed shifts", n, res.Stats.ShiftsProcessed)
	}
	if tail := cks[len(cks)-1].Tentative; len(tail) != 0 {
		t.Fatalf("final checkpoint still has %d tentative intervals", len(tail))
	}
	if len(cks[0].Tentative) == 0 {
		t.Fatal("submission checkpoint has no startup intervals")
	}
}

// TestCheckpointResumeBitIdentical is the core durability guarantee: a
// solve resumed from any contiguous checkpoint prefix reports crossings
// and ω_max bit-identical to the uninterrupted run, while re-executing
// only the uncovered remainder. The last row is Table-I-shaped: case 1's
// seed, port count and peak at order 125.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cases := []struct {
		seed  int64
		ports int
		order int
		peak  float64
	}{
		{seed: 61, ports: 2, order: 24, peak: 1.06},
		{seed: 62, ports: 2, order: 30, peak: 1.04},
		{seed: 64, ports: 2, order: 28, peak: 1.05},
		{seed: 1, ports: 20, order: 125, peak: 1.01},
	}
	for _, tc := range cases {
		ref, cks := runWithCheckpoints(t, tc.seed, tc.ports, tc.order, tc.peak)
		refShifts := len(cks) - 1
		// Three prefixes: submission only (resume skips estimation but
		// re-runs every shift), mid-run, and the complete log.
		prefixes := []int{1, (len(cks) + 1) / 2, len(cks)}
		for _, n := range prefixes {
			rs := foldPrefix(cks, n)
			op := buildOp(t, tc.seed, tc.ports, tc.order, tc.peak)
			var col ckCollector
			pool := NewPool(3)
			j, err := pool.Submit(context.Background(), op, Options{
				Seed:       7,
				Arnoldi:    arnoldi.SingleShiftParams{MaxDim: 40},
				Checkpoint: col.add,
				Resume:     rs,
			})
			if err != nil {
				pool.Close()
				t.Fatalf("seed %d prefix %d: resume submit: %v", tc.seed, n, err)
			}
			res, err := j.Wait()
			pool.Close()
			if err != nil {
				t.Fatalf("seed %d prefix %d: resumed wait: %v", tc.seed, n, err)
			}
			if res.OmegaMax != ref.OmegaMax {
				t.Fatalf("seed %d prefix %d: ω_max %v != %v", tc.seed, n, res.OmegaMax, ref.OmegaMax)
			}
			if len(res.Crossings) != len(ref.Crossings) {
				t.Fatalf("seed %d prefix %d: %d crossings vs %d uninterrupted",
					tc.seed, n, len(res.Crossings), len(ref.Crossings))
			}
			for k := range res.Crossings {
				if res.Crossings[k] != ref.Crossings[k] {
					t.Fatalf("seed %d prefix %d crossing %d: %v != %v (not bit-identical)",
						tc.seed, n, k, res.Crossings[k], ref.Crossings[k])
				}
			}
			newShifts := col.commits()
			if n > 1 && newShifts >= refShifts {
				t.Fatalf("seed %d prefix %d: resumed run executed %d shifts, not fewer than %d",
					tc.seed, n, newShifts, refShifts)
			}
			if n == len(cks) && newShifts != 0 {
				t.Fatalf("seed %d full prefix: re-executed %d shifts", tc.seed, newShifts)
			}
			// Emission resumes after the prefix: no Seq-0 event, sequence
			// numbers continue contiguously from rs.Seq+1.
			for i, ck := range col.sorted() {
				if want := rs.Seq + 1 + i; ck.Seq != want {
					t.Fatalf("seed %d prefix %d: resumed checkpoint %d has Seq %d, want %d",
						tc.seed, n, i, ck.Seq, want)
				}
			}
		}
	}
}

// TestResumeValidation: corrupted resume states must be rejected at
// submission, before any solver state is touched.
func TestResumeValidation(t *testing.T) {
	op := buildOp(t, 66, 2, 12, 1.05)
	pool := NewPool(2)
	defer pool.Close()
	good := func() *ResumeState {
		return &ResumeState{
			Seq: 1, OmegaMax: 5, NextID: 2, Completed: 1,
			Outs:      []ShiftCheckpoint{{Omega: 1, Radius: 0.5}},
			Tentative: []IntervalCheckpoint{{ID: 1, Lo: 2, Hi: 4, Shift: 3}},
		}
	}
	cases := []struct {
		name string
		mut  func(*ResumeState)
		want string
	}{
		{"nan omega-max", func(rs *ResumeState) { rs.OmegaMax = math.NaN() }, "ω_max"},
		{"negative counter", func(rs *ResumeState) { rs.Completed = -1 }, "negative resume counter"},
		{"interval id out of range", func(rs *ResumeState) { rs.Tentative[0].ID = 7 }, "outside"},
		{"duplicate interval id", func(rs *ResumeState) {
			rs.Tentative = append(rs.Tentative, rs.Tentative[0])
		}, "duplicate"},
		{"shift outside interval", func(rs *ResumeState) { rs.Tentative[0].Shift = 9 }, "shift"},
		{"empty interval", func(rs *ResumeState) { rs.Tentative[0].Hi = rs.Tentative[0].Lo }, "empty"},
		{"negative radius", func(rs *ResumeState) { rs.Outs[0].Radius = -1 }, "bad resume shift"},
		{"residual mismatch", func(rs *ResumeState) {
			rs.Outs[0].Eigenvalues = []complex128{1i}
		}, "residuals"},
	}
	for _, tc := range cases {
		rs := good()
		tc.mut(rs)
		_, err := pool.Submit(context.Background(), op, Options{
			Seed: 7, Arnoldi: arnoldi.SingleShiftParams{MaxDim: 40}, Resume: rs,
		})
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The untouched state must be accepted (guards against a vacuous test).
	j, err := pool.Submit(context.Background(), op, Options{
		Seed: 7, Arnoldi: arnoldi.SingleShiftParams{MaxDim: 40}, Resume: good(),
	})
	if err != nil {
		t.Fatalf("valid resume state rejected: %v", err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatalf("valid resume solve: %v", err)
	}
}
