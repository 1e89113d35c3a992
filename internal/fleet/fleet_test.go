package fleet

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/arnoldi"
	"repro/internal/core"
	"repro/internal/passivity"
	"repro/internal/statespace"
)

func genModel(t *testing.T, seed int64, order int, peak float64) *statespace.Model {
	t.Helper()
	m, err := statespace.Generate(seed, statespace.GenOptions{
		Ports: 2, Order: order, TargetPeak: peak, GridPoints: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func charOpts(threads int) passivity.Options {
	return passivity.Options{Core: core.Options{
		Threads: threads, Seed: 11,
		Arnoldi: arnoldi.SingleShiftParams{NWanted: 4, MaxDim: 40},
	}}
}

// TestFleetMatchesSerialPerModel: N concurrent jobs on the shared pool must
// produce crossings bit-identical to serial per-model characterizations.
// Besides the 2-port models, two Table-I-shaped inputs (cases 1 and 3 at
// a fifth of their order: n = 200, p = 20) give the fleet many-port jobs.
func TestFleetMatchesSerialPerModel(t *testing.T) {
	// Each input is built twice, so the serial and the fleet run each get
	// a fresh model.
	var builds []func() *statespace.Model
	for _, s := range []struct {
		seed  int64
		order int
		peak  float64
	}{
		{81, 24, 1.06},
		{82, 30, 1.04},
		{83, 26, 0.92},
		{84, 28, 1.05},
		{85, 22, 1.03},
		{86, 20, 1.07},
	} {
		builds = append(builds, func() *statespace.Model { return genModel(t, s.seed, s.order, s.peak) })
	}
	for _, id := range []int{1, 3} {
		spec, err := statespace.FindCase(id)
		if err != nil {
			t.Fatal(err)
		}
		spec.N /= 5
		builds = append(builds, func() *statespace.Model {
			m, err := statespace.BuildCase(spec)
			if err != nil {
				t.Fatal(err)
			}
			return m
		})
	}
	// Serial per-model references, one standalone Characterize each.
	refs := make([]*passivity.Report, len(builds))
	for i, build := range builds {
		rep, err := passivity.Characterize(build(), charOpts(2))
		if err != nil {
			t.Fatalf("serial %d: %v", i, err)
		}
		refs[i] = rep
	}
	// All jobs concurrently on one shared pool.
	e := New(4)
	defer e.Close()
	jobs := make([]*Job, len(builds))
	for i, build := range builds {
		j, err := e.Submit(context.Background(), Request{
			Model: build(),
			Char:  charOpts(2),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		got, want := res.Report.Crossings, refs[i].Crossings
		if len(got) != len(want) {
			t.Fatalf("job %d: %d crossings, serial found %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("job %d crossing %d: fleet %v != serial %v (not bit-identical)",
					i, k, got[k], want[k])
			}
		}
		if res.Report.Passive != refs[i].Passive {
			t.Fatalf("job %d: passivity verdict diverged", i)
		}
	}
}

// TestFleetCancellationNoGoroutineLeak: canceling a job mid-solve must
// propagate ctx.Err() and, after Close, leave the goroutine count at the
// baseline.
func TestFleetCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	// A model big enough that the solve is still running when we cancel.
	j, err := e.Submit(ctx, Request{
		Model: genModel(t, 87, 80, 1.05),
		Char:  charOpts(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A second, uncanceled job sharing the pool must be unaffected.
	j2, err := e.Submit(context.Background(), Request{
		Model: genModel(t, 88, 20, 1.04),
		Char:  charOpts(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	if _, err := j.Wait(); err == nil {
		t.Log("job finished before cancellation took effect")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := j2.Wait(); err != nil {
		t.Fatalf("sibling job failed after cancellation of another: %v", err)
	}
	e.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestFleetSubmitAfterClose: Submit on a closed engine fails cleanly.
func TestFleetSubmitAfterClose(t *testing.T) {
	e := New(1)
	e.Close()
	if _, err := e.Submit(context.Background(), Request{Model: genModel(t, 90, 10, 1.0)}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

// TestFleetNilModelRejected: a nil model errors at Submit, not at Wait.
func TestFleetNilModelRejected(t *testing.T) {
	e := New(1)
	defer e.Close()
	if _, err := e.Submit(context.Background(), Request{}); err == nil {
		t.Fatal("nil model accepted")
	}
}
