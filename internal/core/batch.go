package core

import (
	"context"
	"sync"
)

// batch tracks one RunBatch fan-out: remaining task count, first error,
// and the join channel. Its own mutex (not the pool's) serializes the
// error/countdown so finishing tasks never contend with the scheduler.
type batch struct {
	mu   sync.Mutex
	left int
	err  error
	done chan struct{}
}

func (b *batch) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *batch) errNow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

func (b *batch) finishOne() {
	b.mu.Lock()
	b.left--
	if b.left == 0 {
		close(b.done)
	}
	b.mu.Unlock()
}

// RunBatch fans the given functions out to the pool's workers as one task
// batch of this client and blocks until every task has drained (join).
// Each function receives the executing worker's id. The first error stops
// the batch: its still-queued tasks are purged from the client queue in
// one pass (they neither run nor cost further scheduler pops) and the
// error is returned. Likewise ctx cancellation purges the not-yet-started
// remainder and returns ctx.Err(); tasks already in flight run to
// completion, so the caller's result slots are quiescent once RunBatch
// returns.
//
// Determinism: the pool only chooses WHEN each function runs, never with
// what arguments — a batch whose functions write to disjoint,
// index-assigned slots produces bit-identical results under any worker
// count or pool load.
//
// Backpressure: a client created with ClientOptions.MaxQueuedTasks > 0
// enqueues large batches in chunks of that size — each chunk drains before
// the next is queued, bounding this client's pool-queue footprint. The
// first failing chunk returns its error without enqueueing the rest.
//
// RunBatch must not be called from a pool worker goroutine (the join
// could then deadlock a fully-busy pool); the solver phases call it from
// job coordinator goroutines only.
func (c *Client) RunBatch(ctx context.Context, phase string, fns []func(worker int) error) error {
	if limit := c.maxQueued; limit > 0 && len(fns) > limit {
		for start := 0; start < len(fns); start += limit {
			end := start + limit
			if end > len(fns) {
				end = len(fns)
			}
			if err := c.runBatchChunk(ctx, phase, fns[start:end]); err != nil {
				return err
			}
		}
		return nil
	}
	return c.runBatchChunk(ctx, phase, fns)
}

// runBatchChunk enqueues one batch of tasks whole and joins it.
func (c *Client) runBatchChunk(ctx context.Context, phase string, fns []func(worker int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(fns) == 0 {
		return nil
	}
	b := &batch{left: len(fns), done: make(chan struct{})}
	p := c.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	for _, fn := range fns {
		p.enqueueLocked(&task{
			client: c,
			phase:  phase,
			batch:  b,
			run: func(worker int) {
				failed := b.errNow() != nil
				if !failed {
					if err := ctx.Err(); err != nil {
						b.fail(err)
						failed = true
					} else if err := fn(worker); err != nil {
						b.fail(err)
						failed = true
					}
				}
				if failed {
					// Dead batch: drop its queued siblings in one pass so
					// the join does not wait for each to be individually
					// popped past live clients' work.
					c.purgeBatch(b)
				}
				// Pool.execute calls b.finishOne after accounting the
				// task, so the join never returns ahead of PhaseStats.
			},
			abort: func() {
				b.fail(ErrPoolClosed)
				b.finishOne()
			},
		})
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	<-b.done
	return b.errNow()
}

// purgeBatch removes the batch's still-queued tasks from the client queue
// and marks each as finished. Tasks concurrently popped by a worker are
// simply no longer in the queue and account for themselves; a second
// purge finds nothing.
func (c *Client) purgeBatch(b *batch) {
	p := c.pool
	p.mu.Lock()
	purged := 0
	kept := c.queue[:0]
	for _, t := range c.queue {
		if t.batch == b {
			purged++
			continue
		}
		kept = append(kept, t)
	}
	c.queue = kept
	p.mu.Unlock()
	for i := 0; i < purged; i++ {
		b.finishOne()
	}
}
