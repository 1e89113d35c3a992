package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/passivity"
)

// TestFleetAdmissionBlocksUntilSlotFrees: with MaxQueued=1 the second
// Submit must not be admitted while the first job is still in flight, and
// must proceed once it finishes.
func TestFleetAdmissionBlocksUntilSlotFrees(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2, MaxQueued: 1})
	defer e.Close()

	j1, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 101, 40, 1.05),
		Char:  charOpts(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		j   *Job
		err error
	}
	admitted := make(chan outcome, 1)
	go func() {
		j2, err := e.Submit(context.Background(), Request{
			Model: genModel(t, 102, 10, 1.0),
			Char:  charOpts(1),
		})
		admitted <- outcome{j2, err}
	}()

	select {
	case o := <-admitted:
		// Legal only if job 1 already finished (fast machine).
		select {
		case <-j1.Done():
		default:
			t.Fatalf("second submit admitted while the slot was held (err=%v)", o.err)
		}
		if o.err != nil {
			t.Fatal(o.err)
		}
		if _, err := o.j.Wait(); err != nil {
			t.Fatal(err)
		}
		return
	case <-time.After(5 * time.Millisecond):
		// Expected: still blocked.
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-admitted:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if _, err := o.j.Wait(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second submit never admitted after the slot freed")
	}
}

// TestFleetAdmissionFailFast: a FailFast engine rejects the over-cap
// submit with ErrQueueFull instead of blocking.
func TestFleetAdmissionFailFast(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 1, MaxQueued: 1, FailFast: true})
	defer e.Close()

	j1, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 103, 40, 1.05),
		Char:  charOpts(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 104, 10, 1.0),
		Char:  charOpts(1),
	}); !errors.Is(err, ErrQueueFull) {
		// The only legal alternative is that job 1 finished already.
		select {
		case <-j1.Done():
		default:
			t.Fatalf("want ErrQueueFull, got %v", err)
		}
	}
	if _, err := j1.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAdmissionSubmitCtxCancel: a canceled context unblocks a Submit
// waiting for admission.
func TestFleetAdmissionSubmitCtxCancel(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 1, MaxQueued: 1})
	defer e.Close()

	if _, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 105, 40, 1.05),
		Char:  charOpts(1),
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Submit(ctx, Request{Model: genModel(t, 106, 10, 1.0), Char: charOpts(1)})
		errCh <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) && err != nil {
			t.Fatalf("want context.Canceled (or admitted nil), got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Submit never returned")
	}
}

// TestFleetCloseWhileSubmitBlocked is the regression test for the
// Close / in-flight Submit race surface: closing the engine while a
// Submit is blocked on admission must wake it with ErrEngineClosed —
// never deadlock or panic.
func TestFleetCloseWhileSubmitBlocked(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 1, MaxQueued: 1})

	// Hold the only admission slot with a job big enough to outlive the
	// blocked Submit below.
	j1, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 107, 60, 1.05),
		Char:  charOpts(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), Request{
			Model: genModel(t, 108, 10, 1.0),
			Char:  charOpts(1),
		})
		blocked <- err
	}()
	time.Sleep(2 * time.Millisecond) // let the second Submit reach the admission wait

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()

	select {
	case err := <-blocked:
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("blocked Submit: want ErrEngineClosed, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Submit blocked on admission deadlocked across Close")
	}
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Close deadlocked")
	}
	// The in-flight job was allowed to finish.
	if _, err := j1.Wait(); err != nil {
		t.Fatalf("in-flight job failed across Close: %v", err)
	}
	// Double close is safe.
	e.Close()
}

// TestFleetInteractiveOvertakesBatch: an interactive characterization
// submitted mid-batch must complete before the queued batch jobs drain —
// the fleet-level view of the pool's priority classes. The batch is made
// of characterizations in one row and of enforcements (each a chain of
// re-characterizations and constraint batches) in the other.
func TestFleetInteractiveOvertakesBatch(t *testing.T) {
	for _, enforce := range []bool{false, true} {
		e := NewEngine(EngineOptions{Workers: 1})
		batch := make([]*Job, 4)
		for i := range batch {
			req := Request{
				Model:    genModel(t, int64(110+i), 60, 1.05),
				Char:     charOpts(1),
				Priority: core.PriorityBatch,
			}
			if enforce {
				req.Enforce = &passivity.EnforceOptions{Char: charOpts(1)}
			}
			j, err := e.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = j
		}
		inter, err := e.Submit(context.Background(), Request{
			Model:    genModel(t, 120, 12, 1.0),
			Char:     charOpts(1),
			Priority: core.PriorityInteractive,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inter.Wait(); err != nil {
			t.Fatal(err)
		}
		// A single worker grinding four order-60 jobs cannot have drained
		// the whole batch before the order-12 interactive job — unless the
		// interactive tasks overtook the queued batch tasks, at least the
		// last batch job must still be unfinished here.
		stillQueued := 0
		for _, j := range batch {
			select {
			case <-j.Done():
			default:
				stillQueued++
			}
		}
		if stillQueued == 0 {
			t.Fatalf("enforce=%v: interactive job finished after the entire batch: priority had no effect", enforce)
		}
		for i, j := range batch {
			if _, err := j.Wait(); err != nil && !errors.Is(err, passivity.ErrEnforcementFailed) {
				t.Fatalf("enforce=%v: batch job %d: %v", enforce, i, err)
			}
		}
		e.Close()
	}
}
