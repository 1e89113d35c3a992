package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSubtract(t *testing.T) {
	cases := []struct {
		lo, hi, dLo, dHi float64
		want             [][2]float64
	}{
		{0, 10, 20, 30, [][2]float64{{0, 10}}},       // disjoint right
		{0, 10, -5, -1, [][2]float64{{0, 10}}},       // disjoint left
		{0, 10, -1, 11, nil},                         // fully covered
		{0, 10, -1, 4, [][2]float64{{4, 10}}},        // left overlap
		{0, 10, 6, 12, [][2]float64{{0, 6}}},         // right overlap
		{0, 10, 3, 7, [][2]float64{{0, 3}, {7, 10}}}, // interior split
	}
	for i, c := range cases {
		got := subtract(c.lo, c.hi, c.dLo, c.dHi)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
		for j := range got {
			if math.Abs(got[j][0]-c.want[j][0]) > 1e-12 || math.Abs(got[j][1]-c.want[j][1]) > 1e-12 {
				t.Fatalf("case %d: got %v want %v", i, got, c.want)
			}
		}
	}
}

func TestSubtractDropsSlivers(t *testing.T) {
	// A remainder thinner than 1e-12 of the width must be dropped.
	got := subtract(0, 1, 1e-15, 2)
	if len(got) != 0 {
		t.Fatalf("sliver not dropped: %v", got)
	}
}

func TestSubtractCoverageProperty(t *testing.T) {
	// The union of (remainders ∪ disk∩interval) must equal the interval.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Float64() * 10
		hi := lo + rng.Float64()*10 + 0.1
		c := lo + (hi-lo)*rng.Float64()*1.4 - 0.2*(hi-lo)
		r := rng.Float64() * (hi - lo)
		rems := subtract(lo, hi, c-r, c+r)
		// Total measure of remainders + covered part == hi−lo.
		covered := math.Max(0, math.Min(hi, c+r)-math.Max(lo, c-r))
		total := covered
		for _, rem := range rems {
			if rem[0] < lo-1e-9 || rem[1] > hi+1e-9 || rem[1] <= rem[0] {
				return false
			}
			total += rem[1] - rem[0]
		}
		return math.Abs(total-(hi-lo)) < 1e-9*(hi-lo)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialIntervals(t *testing.T) {
	ivs := initialIntervals(0, 100, 4)
	if len(ivs) != 4 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	// Pick order: first, last, then interior.
	if !ivs[0].edgeLeft || ivs[0].shift != 0 {
		t.Fatalf("first pick should be the left edge: %+v", ivs[0])
	}
	if !ivs[1].edgeRite || ivs[1].shift != 100 {
		t.Fatalf("second pick should be the right edge: %+v", ivs[1])
	}
	// Interior shifts at midpoints.
	if ivs[2].shift != 37.5 || ivs[3].shift != 62.5 {
		t.Fatalf("interior shifts wrong: %g %g", ivs[2].shift, ivs[3].shift)
	}
	// The union of intervals is the band.
	var segs [][2]float64
	for _, iv := range ivs {
		segs = append(segs, [2]float64{iv.lo, iv.hi})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i][0] < segs[j][0] })
	if segs[0][0] != 0 || segs[len(segs)-1][1] != 100 {
		t.Fatal("band edges not covered")
	}
	for i := 1; i < len(segs); i++ {
		if math.Abs(segs[i][0]-segs[i-1][1]) > 1e-12 {
			t.Fatalf("gap between intervals %v and %v", segs[i-1], segs[i])
		}
	}
}

// newTestJob wires an idle pool (no workers) and one job so the tests can
// drive the scheduler bookkeeping synchronously with synthetic radii,
// without any numerics. Each test job gets its own default client, like a
// fleet submission would.
func newTestJob(p *Pool, maxShifts int, intervals []*interval) *Job {
	j := &Job{
		opts:   Options{MaxShifts: maxShifts},
		client: p.NewClient(ClientOptions{}),
		done:   make(chan struct{}),
	}
	for _, iv := range intervals {
		j.pushLocked(p, iv)
	}
	return j
}

// popInterval drives the scheduler synchronously: next admitted tentative
// interval, or nil when no runnable eigensolver work is queued.
func popInterval(p *Pool) *interval {
	t := p.popLocked()
	if t == nil {
		return nil
	}
	return t.iv
}

// queuedIntervals returns the job's still-queued tentative intervals.
func queuedIntervals(j *Job) []*interval {
	var out []*interval
	for _, t := range j.client.queue {
		if t.iv != nil && t.job == j {
			out = append(out, t.iv)
		}
	}
	return out
}

func TestSchedulerCoverageInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newIdlePool(1)
		j := newTestJob(p, 1000, initialIntervals(0, 1, 4))
		// Track the still-uncovered part of the band independently.
		remaining := [][2]float64{{0, 1}}
		for {
			iv := popInterval(p) // single-threaded: drives to completion
			if iv == nil {
				break
			}
			// Random radius: sometimes covers, sometimes splits.
			rho := iv.width() * (0.2 + rng.Float64())
			var next [][2]float64
			for _, r := range remaining {
				next = append(next, subtract(r[0], r[1], iv.shift-rho, iv.shift+rho)...)
			}
			remaining = next
			j.completeLocked(p, iv, iv.shift, rho)
		}
		if len(queuedIntervals(j)) != 0 || j.inflight != 0 || !j.finished || j.err != nil {
			return false
		}
		// The scheduler must have driven the uncovered measure to ~zero.
		var left float64
		for _, r := range remaining {
			left += r[1] - r[0]
		}
		return left < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerShiftBudget(t *testing.T) {
	p := newIdlePool(1)
	j := newTestJob(p, 1, initialIntervals(0, 1, 2))
	if iv := popInterval(p); iv == nil {
		t.Fatal("first pop should succeed")
	}
	if iv := popInterval(p); iv != nil {
		t.Fatal("budget-exceeded pop should fail")
	}
	if j.err == nil {
		t.Fatal("expected budget error")
	}
}

func TestSchedulerTentativeDeletion(t *testing.T) {
	p := newIdlePool(1)
	j := newTestJob(p, 100, initialIntervals(0, 1, 4))
	iv := popInterval(p) // left edge interval [0, 0.25], shift 0
	// Huge disk covering the whole band: every tentative interval must die.
	j.completeLocked(p, iv, iv.shift, 5)
	if left := len(queuedIntervals(j)); left != 0 {
		t.Fatalf("queue not emptied: %d left", left)
	}
	if j.tentativeDeleted != 3 {
		t.Fatalf("tentativeDeleted = %d, want 3", j.tentativeDeleted)
	}
	if !j.finished {
		t.Fatal("fully covered job not finished")
	}
}

func TestSchedulerSplitSpawnsChildren(t *testing.T) {
	p := newIdlePool(1)
	j := newTestJob(p, 100, initialIntervals(0, 1, 2))
	// Take the left-edge interval [0, 0.5] and complete with a tiny radius
	// around its shift (0): remainder (0+r, 0.5) must be requeued.
	iv := popInterval(p)
	j.completeLocked(p, iv, 0, 0.1)
	found := false
	for _, q := range queuedIntervals(j) {
		if math.Abs(q.lo-0.1) < 1e-12 && math.Abs(q.hi-0.5) < 1e-12 {
			found = true
			if math.Abs(q.shift-0.3) > 1e-12 {
				t.Fatalf("child shift %g, want midpoint 0.3", q.shift)
			}
		}
	}
	if !found {
		t.Fatalf("remainder interval not requeued: %+v", queuedIntervals(j))
	}
}

// TestSchedulerJobIsolation: completing a disk for one job must never touch
// another job's tentative intervals on the same pool.
func TestSchedulerJobIsolation(t *testing.T) {
	p := newIdlePool(1)
	j1 := newTestJob(p, 100, initialIntervals(0, 1, 2))
	j2 := newTestJob(p, 100, initialIntervals(0, 1, 2))
	// Pop j1's first interval and cover the whole band: j1's remaining
	// tentative interval dies, j2's stay intact. Round-robin order across
	// the two equal-priority clients starts with the first-registered one.
	tk := p.popLocked()
	if tk == nil || tk.job != j1 {
		t.Fatal("round-robin order broken: expected j1's interval first")
	}
	iv := tk.iv
	j1.completeLocked(p, iv, iv.shift, 5)
	if j1.tentativeDeleted != 1 || !j1.finished {
		t.Fatalf("j1 not completed: deleted=%d finished=%v", j1.tentativeDeleted, j1.finished)
	}
	if j2.pending != 2 || j2.tentativeDeleted != 0 || j2.finished {
		t.Fatalf("j2 was touched: pending=%d deleted=%d", j2.pending, j2.tentativeDeleted)
	}
	if len(queuedIntervals(j1)) != 0 || len(queuedIntervals(j2)) != 2 {
		t.Fatal("queues inconsistent after j1 finished")
	}
}

// TestSchedulerFailAfterFinishIsNoop: the ctx watcher can race job
// completion (its select may see ctx.Done() and j.done ready together);
// failing an already-finished job must not overwrite its success.
func TestSchedulerFailAfterFinishIsNoop(t *testing.T) {
	p := newIdlePool(1)
	j := newTestJob(p, 100, initialIntervals(0, 1, 2))
	// Drain the job to successful completion.
	for {
		iv := popInterval(p)
		if iv == nil {
			break
		}
		j.completeLocked(p, iv, iv.shift, 5)
	}
	if !j.finished || j.err != nil {
		t.Fatalf("job not cleanly finished: finished=%v err=%v", j.finished, j.err)
	}
	j.failLocked(p, ErrPoolClosed)
	if j.err != nil {
		t.Fatalf("failLocked overwrote a finished job's success with %v", j.err)
	}
}
