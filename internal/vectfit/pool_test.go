package vectfit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/statespace"
)

// sequentialFit replicates the pre-pool per-column loop of Fitter.Finish
// (relocate → monitor → converge, then a final residue solve, then the
// sequential RMS accumulation) using the same internal kernels. It is the
// reference the pool-routed fit must match bit for bit.
func sequentialFit(t *testing.T, samples []Sample, order int, opts Options) *Result {
	t.Helper()
	opts.setDefaults()
	k := len(samples)
	p := samples[0].H.Rows
	omegas := make([]float64, k)
	for i, s := range samples {
		omegas[i] = s.Omega
	}
	polesByCol := make([][]complex128, p)
	residByCol := make([]*mat.CDense, p)
	dCol := mat.NewDense(p, p)
	iters := make([]int, p)
	for col := 0; col < p; col++ {
		f := mat.NewCDense(p, k)
		for ki := 0; ki < k; ki++ {
			for r := 0; r < p; r++ {
				f.Set(r, ki, samples[ki].H.At(r, col))
			}
		}
		poles := InitialPoles(omegas[0], omegas[len(omegas)-1], order)
		lastErr := math.Inf(1)
		it := 0
		for ; it < opts.Iterations; it++ {
			next, err := relocatePoles(omegas, f, poles, opts.Relaxed)
			if err != nil {
				t.Fatal(err)
			}
			poles = next
			_, _, rms, err := fitResidues(omegas, f, poles)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lastErr-rms) <= opts.RelTol*math.Max(rms, 1e-300) {
				it++
				break
			}
			lastErr = rms
		}
		res, d, _, err := fitResidues(omegas, f, poles)
		if err != nil {
			t.Fatal(err)
		}
		polesByCol[col] = poles
		residByCol[col] = res
		for r := 0; r < p; r++ {
			dCol.Set(r, col, d[r])
		}
		iters[col] = it
	}
	model, err := statespace.FromPoleResidue(dCol, polesByCol, residByCol)
	if err != nil {
		t.Fatal(err)
	}
	var ss float64
	cnt := 0
	for ki := 0; ki < k; ki++ {
		h := model.EvalJW(omegas[ki])
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				d := h.At(i, j) - samples[ki].H.At(i, j)
				ss += real(d)*real(d) + imag(d)*imag(d)
				cnt++
			}
		}
	}
	return &Result{Model: model, RMSError: math.Sqrt(ss / float64(cnt)), Iterations: iters}
}

// referenceFits holds sequentialFit of fitterSamples(t, 3) at order 8 per
// mode (keyed by Options.Relaxed). Each costs seconds under -race, so the
// tests that compare against it share one per test process.
var referenceFits struct {
	sync.Mutex
	byMode map[bool]*Result
}

func referenceFit(t *testing.T, relaxed bool) *Result {
	t.Helper()
	referenceFits.Lock()
	defer referenceFits.Unlock()
	if ref, ok := referenceFits.byMode[relaxed]; ok {
		return ref
	}
	ref := sequentialFit(t, fitterSamples(t, 3), 8, Options{Relaxed: relaxed})
	if referenceFits.byMode == nil {
		referenceFits.byMode = map[bool]*Result{}
	}
	referenceFits.byMode[relaxed] = ref
	return ref
}

func requireSameFit(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.RMSError != want.RMSError {
		t.Fatalf("%s: RMSError %v != %v", label, got.RMSError, want.RMSError)
	}
	if fmt.Sprint(got.Iterations) != fmt.Sprint(want.Iterations) {
		t.Fatalf("%s: iterations %v != %v", label, got.Iterations, want.Iterations)
	}
	if !bytes.Equal(encode(t, got.Model), encode(t, want.Model)) {
		t.Fatalf("%s: fitted model not bit-identical", label)
	}
}

// TestFitPoolRoutedBitIdentical pins the tentpole guarantee: the
// pool-routed per-column fit is bit-identical to the pre-refactor
// sequential loop under any worker count, in strict and relaxed modes.
func TestFitPoolRoutedBitIdentical(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		samples := fitterSamples(t, 3)
		opts := Options{Relaxed: relaxed}
		ref := referenceFit(t, relaxed)
		for _, threads := range []int{1, 2, 8} {
			o := opts
			o.Threads = threads
			got, err := Fit(samples, 8, o)
			if err != nil {
				t.Fatalf("relaxed=%v threads=%d: %v", relaxed, threads, err)
			}
			requireSameFit(t, fmt.Sprintf("relaxed=%v threads=%d", relaxed, threads), got, ref)
		}
	}
}

// TestFitSharedPoolClient: a fit under an external client runs its column
// work as PhaseFit tasks of the shared pool — one task per column per
// pole-relocation round, one final residue task per column, one RMS
// accumulation task — and still produces the bit-identical model.
func TestFitSharedPoolClient(t *testing.T) {
	p := core.NewPool(2)
	defer p.Close()
	samples := fitterSamples(t, 3)
	ref := referenceFit(t, false)
	got, err := Fit(samples, 8, Options{Client: p.NewClient(core.ClientOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	requireSameFit(t, "shared pool", got, ref)
	total := 0
	for _, it := range got.Iterations {
		total += it
	}
	total += len(got.Iterations) + 1 // final residue solve per column + the RMS task
	if st := p.PhaseStats()[core.PhaseFit]; st.Tasks != total {
		t.Fatalf("PhaseFit counted %d tasks, want %d (Σ iterations + columns + 1)", st.Tasks, total)
	}
}

// TestFinishContextCancelNoLeak: canceling the context mid-fit returns
// ctx.Err() and leaks neither pool workers nor fit goroutines.
func TestFinishContextCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := core.NewPool(2)
	samples := fitterSamples(t, 4)
	ft := NewFitter(10, Options{Client: pool.NewClient(core.ClientOptions{})})
	for _, s := range samples {
		if err := ft.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ft.FinishContext(ctx)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first PhaseFit batch start
	cancel()
	select {
	case err := <-errc:
		// A fast machine may finish the whole fit before the cancel lands;
		// anything other than success must be the context error.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("FinishContext did not return after cancellation")
	}
	pool.Close()
	// The worker goroutines and the batch join must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestFinishPoolClosedCleanError: a fit whose shared pool closes under it
// (or was already closed) fails with core.ErrPoolClosed instead of
// deadlocking or panicking.
func TestFinishPoolClosedCleanError(t *testing.T) {
	// Already-closed pool: the very first batch fails.
	pool := core.NewPool(1)
	client := pool.NewClient(core.ClientOptions{})
	pool.Close()
	_, err := Fit(fitterSamples(t, 2), 8, Options{Client: client})
	if !errors.Is(err, core.ErrPoolClosed) {
		t.Fatalf("closed pool: want ErrPoolClosed, got %v", err)
	}

	// Close mid-fit: queued column tasks are aborted, the join wakes, and
	// Finish surfaces the same clean error.
	pool2 := core.NewPool(1)
	ft := NewFitter(10, Options{Client: pool2.NewClient(core.ClientOptions{})})
	for _, s := range fitterSamples(t, 4) {
		if err := ft.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ft.Finish()
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	pool2.Close()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, core.ErrPoolClosed) {
			t.Fatalf("mid-fit close: want ErrPoolClosed (or a full fit), got %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Finish did not return after pool close")
	}
}

// TestFinishRejectsNegativeThreads mirrors the core option hygiene: a
// negative Threads must error instead of silently clamping.
func TestFinishRejectsNegativeThreads(t *testing.T) {
	_, err := Fit(fitterSamples(t, 2), 8, Options{Threads: -1})
	if err == nil {
		t.Fatal("negative Threads accepted")
	}
}
