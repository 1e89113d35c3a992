package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/arnoldi"
)

// TestYieldInteractiveInline pins the cooperative-preemption semantics of
// YieldInteractive on a single-worker pool, timing-free: while a batch
// task occupies the only worker, a queued interactive task can run ONLY
// through the yield, inline on the yielding worker — and a queued
// batch-class task must NOT be picked up by it.
func TestYieldInteractiveInline(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	batch := pool.NewClient(ClientOptions{Priority: PriorityBatch})
	batch2 := pool.NewClient(ClientOptions{Priority: PriorityBatch})
	inter := pool.NewClient(ClientOptions{Priority: PriorityInteractive})

	ranOn := make(chan int, 1) // worker index the interactive task executed on
	interDone := make(chan error, 1)
	batchRan := make(chan struct{}, 1)
	batch2Done := make(chan error, 1)

	err := batch.RunBatch(context.Background(), PhaseEig, []func(int) error{func(w int) error {
		// The only worker is busy here; everything queued now can start
		// only via yield or after this task returns.
		go func() {
			interDone <- inter.RunBatch(context.Background(), PhaseProbe, []func(int) error{
				func(iw int) error { ranOn <- iw; return nil },
			})
		}()
		go func() {
			batch2Done <- batch2.RunBatch(context.Background(), PhaseProbe, []func(int) error{
				func(int) error { batchRan <- struct{}{}; return nil },
			})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for pool.QueueDepth() < 2 {
			if time.Now().After(deadline) {
				return errors.New("queued tasks never appeared")
			}
			time.Sleep(50 * time.Microsecond)
		}
		pool.YieldInteractive(w)
		// The interactive task ran inline during the yield, so its result
		// is observable synchronously, before this task returns.
		select {
		case iw := <-ranOn:
			if iw != w {
				return fmt.Errorf("interactive task ran on worker %d, want inline on %d", iw, w)
			}
		default:
			return errors.New("YieldInteractive returned without running the queued interactive task")
		}
		// The batch-class task must still be queued: yield serves strictly
		// interactive work.
		select {
		case <-batchRan:
			return errors.New("YieldInteractive ran a batch-class task")
		default:
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-interDone; err != nil {
		t.Fatalf("interactive batch: %v", err)
	}
	if err := <-batch2Done; err != nil {
		t.Fatalf("second batch: %v", err)
	}
}

// TestMidShiftYieldLatency is the regression test for the mid-shift
// preemption point: on a single-worker pool running a batch-class solve
// whose shifts each take many Arnoldi restarts, an interactive task
// submitted mid-shift must start within a fraction of one shift duration
// (the yield fires at restart boundaries) instead of waiting for the
// whole shift — i.e. first-pop latency stays below one checkpoint
// interval. Timing-based, so it takes the best of a few attempts before
// judging.
func TestMidShiftYieldLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	op := buildOp(t, 61, 2, 60, 1.05)
	// NWanted close to MaxDim forces several restarts per shift, giving
	// the yield hook real boundaries to fire at.
	params := arnoldi.SingleShiftParams{NWanted: 10, MaxDim: 16, MaxRestarts: 24}

	// Reference pass: measure per-shift duration and confirm the
	// parameters actually produce multi-restart shifts.
	pool := NewPool(1)
	defer pool.Close()
	j, err := pool.Submit(context.Background(), op, Options{Seed: 7, Arnoldi: params})
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	ref, err := j.Wait()
	if err != nil {
		t.Fatalf("reference wait: %v", err)
	}
	shifts := ref.Stats.ShiftsProcessed
	if shifts < 2 {
		t.Fatalf("setup: only %d shifts, cannot observe a mid-shift window", shifts)
	}
	if avg := float64(ref.Stats.Restarts) / float64(shifts); avg < 3 {
		t.Fatalf("setup: %.1f restarts/shift, too few yield boundaries", avg)
	}

	inter := pool.NewClient(ClientOptions{Priority: PriorityInteractive})
	var best, shiftDur time.Duration
	attempts := 3
	for attempt := 0; attempt < attempts; attempt++ {
		// Commit timestamps delimit the shifts; ck1 marks the start of
		// shift 2, giving a known-in-flight window to land the probe in.
		commits := make(chan time.Time, 64)
		j, err := pool.Submit(context.Background(), op, Options{
			Seed:     7,
			OmegaMax: ref.OmegaMax, // skip estimation: first task is a shift
			Arnoldi:  params,
			Checkpoint: func(ck Checkpoint) {
				if ck.Out != nil {
					commits <- time.Now()
				}
			},
		})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		t1 := <-commits // first shift committed; shift 2 now in flight
		ranAt := make(chan time.Time, 1)
		t0 := time.Now()
		perr := inter.RunBatch(context.Background(), PhaseProbe, []func(int) error{
			// First-pop latency is measured at the moment the task starts
			// executing, not when RunBatch's join returns: on a saturated
			// single-CPU machine the joining goroutine's wake-up can lag
			// the pop by whole scheduler quanta.
			func(int) error { ranAt <- time.Now(); return nil },
		})
		latency := (<-ranAt).Sub(t0)
		t2 := <-commits // second shift committed
		dur := t2.Sub(t1)
		if _, err := j.Wait(); err != nil {
			t.Fatalf("solve: %v", err)
		}
		if perr != nil {
			t.Fatalf("interactive probe: %v", perr)
		}
		if best == 0 || latency < best {
			best, shiftDur = latency, dur
		}
		if latency < dur/2 {
			break
		}
	}
	t.Logf("interactive first-pop latency %v, shift duration %v (%d shifts, %d restarts)",
		best, shiftDur, shifts, ref.Stats.Restarts)
	if best >= shiftDur/2 {
		t.Fatalf("first-pop latency %v not below half a shift (%v): mid-shift yield not effective",
			best, shiftDur)
	}
}
