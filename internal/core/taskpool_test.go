package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// gid parses the current goroutine's id from its stack header ("goroutine
// N [running]: ..."). Test-only: the id is the cheapest way to assert WHERE
// a task ran, which the scheduler deliberately hides otherwise.
func gid() uint64 {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	fields := strings.Fields(string(buf[:n]))
	id, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		panic("gid: " + err.Error())
	}
	return id
}

// waitClientQueued polls until the client has n tasks queued (the batch
// submitter runs in a goroutine; tests must not race its enqueue).
func waitClientQueued(t *testing.T, p *Pool, c *Client, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		queued := len(c.queue)
		p.mu.Unlock()
		if queued >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("client never reached %d queued tasks", n)
}

// TestRunBatchExecutesOnWorkers is the acceptance check that no
// solver-phase work runs on the submitting goroutine: every batch task
// must execute on a pool worker, never inline in RunBatch.
func TestRunBatchExecutesOnWorkers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	c := p.NewClient(ClientOptions{})

	submitter := gid()
	const n = 16
	gids := make([]uint64, n)
	fns := make([]func(int) error, n)
	for i := range fns {
		fns[i] = func(int) error {
			gids[i] = gid()
			return nil
		}
	}
	if err := c.RunBatch(context.Background(), PhaseProbe, fns); err != nil {
		t.Fatal(err)
	}
	workers := make(map[uint64]bool)
	for i, g := range gids {
		if g == 0 {
			t.Fatalf("task %d never ran", i)
		}
		if g == submitter {
			t.Fatalf("task %d ran on the submitting goroutine", i)
		}
		workers[g] = true
	}
	if len(workers) > p.Workers() {
		t.Fatalf("tasks ran on %d distinct goroutines, pool has %d workers", len(workers), p.Workers())
	}
	st := p.PhaseStats()[PhaseProbe]
	if st.Tasks != n {
		t.Fatalf("phase %q counted %d tasks, want %d", PhaseProbe, st.Tasks, n)
	}
	if st.Busy <= 0 {
		t.Fatalf("phase %q busy time not accounted", PhaseProbe)
	}
}

// TestPriorityInteractiveOvertakesBatch: with one worker pinned on a batch
// task and more batch work queued, an interactive client's tasks must all
// pop before any remaining batch task — priority preemption at task-pop
// granularity.
func TestPriorityInteractiveOvertakesBatch(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	batchC := p.NewClient(ClientOptions{Priority: PriorityBatch})
	interC := p.NewClient(ClientOptions{Priority: PriorityInteractive})

	var mu sync.Mutex
	var order []string
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}

	gate := make(chan struct{})
	running := make(chan struct{})
	batchFns := []func(int) error{
		func(int) error { close(running); <-gate; return nil },
	}
	for i := 1; i < 5; i++ {
		batchFns = append(batchFns, func(int) error { record("batch"); return nil })
	}
	batchDone := make(chan error, 1)
	go func() { batchDone <- batchC.RunBatch(context.Background(), "t", batchFns) }()
	<-running // worker is pinned; 4 batch tasks queued

	interFns := make([]func(int) error, 3)
	for i := range interFns {
		interFns[i] = func(int) error { record("interactive"); return nil }
	}
	interDone := make(chan error, 1)
	go func() { interDone <- interC.RunBatch(context.Background(), "t", interFns) }()
	waitClientQueued(t, p, interC, len(interFns))

	close(gate)
	if err := <-interDone; err != nil {
		t.Fatal(err)
	}
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 7 {
		t.Fatalf("recorded %d executions, want 7: %v", len(order), order)
	}
	for i, tag := range order[:3] {
		if tag != "interactive" {
			t.Fatalf("pop %d was %q; interactive work must overtake all queued batch work: %v",
				i, tag, order)
		}
	}
}

// TestWeightedRoundRobinFairness: two equal-priority clients with weights
// 2 and 1 on a single worker must interleave their queued tasks in the
// exact a,a,b cycle — no client starves and shares follow the weights.
func TestWeightedRoundRobinFairness(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gateC := p.NewClient(ClientOptions{})
	a := p.NewClient(ClientOptions{Weight: 2})
	b := p.NewClient(ClientOptions{Weight: 1})

	var mu sync.Mutex
	var order []string
	mk := func(tag string, n int) []func(int) error {
		fns := make([]func(int) error, n)
		for i := range fns {
			fns[i] = func(int) error {
				mu.Lock()
				order = append(order, tag)
				mu.Unlock()
				return nil
			}
		}
		return fns
	}

	gate := make(chan struct{})
	running := make(chan struct{})
	gateDone := make(chan error, 1)
	go func() {
		gateDone <- gateC.RunBatch(context.Background(), "t",
			[]func(int) error{func(int) error { close(running); <-gate; return nil }})
	}()
	<-running // worker pinned; now queue both clients' work

	// Queue a's work strictly before b's so the ring order (and hence the
	// expected WRR phase) is deterministic.
	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	go func() { aDone <- a.RunBatch(context.Background(), "t", mk("a", 6)) }()
	waitClientQueued(t, p, a, 6)
	go func() { bDone <- b.RunBatch(context.Background(), "t", mk("b", 3)) }()
	waitClientQueued(t, p, b, 3)

	close(gate)
	for _, ch := range []chan error{gateDone, aDone, bDone} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a", "a", "b", "a", "a", "b", "a", "a", "b"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("recorded %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop %d: got %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}
}

// TestRunBatchFirstErrorSkipsRemainder: after the first task error the
// not-yet-started tasks are skipped and the error is returned.
func TestRunBatchFirstErrorSkipsRemainder(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	c := p.NewClient(ClientOptions{})

	boom := errors.New("boom")
	ran := 0
	fns := make([]func(int) error, 8)
	for i := range fns {
		fns[i] = func(int) error {
			ran++ // single worker: no synchronization needed
			if i == 0 {
				return boom
			}
			return nil
		}
	}
	err := c.RunBatch(context.Background(), "t", fns)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if ran != 1 {
		t.Fatalf("%d tasks ran after the first error, want 1", ran)
	}
}

// TestRunBatchCanceledContext: a pre-canceled context skips everything; a
// cancellation mid-batch skips the unstarted remainder and reports
// ctx.Err().
func TestRunBatchCanceledContext(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	c := p.NewClient(ClientOptions{})

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := c.RunBatch(pre, "t", []func(int) error{func(int) error { ran = true; return nil }})
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("pre-canceled batch: err=%v ran=%v", err, ran)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var count int
	fns := make([]func(int) error, 6)
	for i := range fns {
		fns[i] = func(int) error {
			count++
			if i == 0 {
				cancel2()
			}
			return nil
		}
	}
	err = c.RunBatch(ctx, "t", fns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if count != 1 {
		t.Fatalf("%d tasks ran after cancellation, want 1", count)
	}
}

// TestCanceledBatchPurgesQueuedTasks: once a batch fails or is canceled,
// its queued tasks must be dropped in one pass — not individually popped
// through the scheduler — so a dead thousand-task batch neither delays
// its join nor steals pops from live clients.
func TestCanceledBatchPurgesQueuedTasks(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	gateC := p.NewClient(ClientOptions{})
	c := p.NewClient(ClientOptions{})

	gate := make(chan struct{})
	running := make(chan struct{})
	gateDone := make(chan error, 1)
	go func() {
		gateDone <- gateC.RunBatch(context.Background(), "gate",
			[]func(int) error{func(int) error { close(running); <-gate; return nil }})
	}()
	<-running // worker pinned: the big batch below stays fully queued

	ctx, cancel := context.WithCancel(context.Background())
	const n = 500
	fns := make([]func(int) error, n)
	for i := range fns {
		fns[i] = func(int) error { return nil }
	}
	done := make(chan error, 1)
	go func() { done <- c.RunBatch(ctx, "purge", fns) }()
	waitClientQueued(t, p, c, n)
	cancel() // kill the batch while everything is still queued
	close(gate)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled batch join did not return")
	}
	if err := <-gateDone; err != nil {
		t.Fatal(err)
	}
	// Exactly one task of the dead batch went through the scheduler (the
	// pop that noticed the cancellation and purged the rest).
	if st := p.PhaseStats()["purge"]; st.Tasks != 1 {
		t.Fatalf("dead batch consumed %d scheduler pops, want 1", st.Tasks)
	}
	p.mu.Lock()
	left := len(c.queue)
	p.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d purged tasks still queued", left)
	}
}

// TestPoolCloseFailsQueuedBatch: Close must unblock a joiner whose tasks
// were still queued, reporting ErrPoolClosed, and reject new batches.
func TestPoolCloseFailsQueuedBatch(t *testing.T) {
	p := NewPool(1)
	c := p.NewClient(ClientOptions{})

	gate := make(chan struct{})
	running := make(chan struct{})
	fns := []func(int) error{
		func(int) error { close(running); <-gate; return nil },
		func(int) error { return nil },
		func(int) error { return nil },
	}
	done := make(chan error, 1)
	go func() { done <- c.RunBatch(context.Background(), "t", fns) }()
	<-running

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	// Close drains the two queued tasks as failed, under the pool lock that
	// also sets closed, then waits for the in-flight gate task. Open the
	// gate only once that drain has happened, however slowly the closing
	// goroutine is scheduled.
	for closing := false; !closing; {
		runtime.Gosched()
		p.mu.Lock()
		closing = p.closed
		p.mu.Unlock()
	}
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("want ErrPoolClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch join deadlocked across Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked")
	}
	if err := c.RunBatch(context.Background(), "t", fns[1:]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("RunBatch on closed pool: want ErrPoolClosed, got %v", err)
	}
}

// TestSubmitRejectsForeignClient: a client of pool A cannot own a job on
// pool B — that would split one job's tasks across two schedulers.
func TestSubmitRejectsForeignClient(t *testing.T) {
	a := NewPool(1)
	defer a.Close()
	b := NewPool(1)
	defer b.Close()
	op := buildOp(t, 95, 2, 10, 1.05)
	_, err := b.Submit(context.Background(), op, Options{Client: a.NewClient(ClientOptions{})})
	if err == nil {
		t.Fatal("foreign client accepted")
	}
	if !strings.Contains(err.Error(), "different pool") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestEigTasksAccountedPerPhase: a pooled solve books its shift tasks
// under PhaseEig — the counter benchtable's fleet leg uses for per-phase
// utilization.
// The ω_max estimation sweep is itself one PhaseEig pool task, and the
// collect tail books its refinements under PhaseRefine.
func TestEigTasksAccountedPerPhase(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	op := buildOp(t, 96, 2, 20, 1.05)
	j, err := p.Submit(context.Background(), op, Options{Threads: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := p.PhaseStats()[PhaseEig]
	if st.Tasks != res.Stats.ShiftsProcessed+1 {
		t.Fatalf("PhaseEig counted %d tasks, want %d shifts + 1 estimate",
			st.Tasks, res.Stats.ShiftsProcessed)
	}
	if st.Busy <= 0 {
		t.Fatal("PhaseEig busy time not accounted")
	}
	if rf := p.PhaseStats()[PhaseRefine]; rf.Tasks == 0 {
		t.Fatal("collect tail booked no PhaseRefine tasks")
	}
}

// sanity-check the error text used by the budget path (it moved packages
// during the task refactor).
func TestShiftBudgetErrorNamesBudget(t *testing.T) {
	if got := errShiftBudget(7).Error(); !strings.Contains(got, "7") {
		t.Fatalf("budget error lost the cap: %q", got)
	}
	if got := fmt.Sprintf("%v", errShiftBudget(7)); !strings.Contains(got, "budget") {
		t.Fatalf("budget error lost its meaning: %q", got)
	}
}
