package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload on tiny seeded inputs, untraced and
// traced, and checks that each metric BENCHMARK.json names is printed
// with its unit and that every job matched its reference.
func TestSmoke(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: w.Name, Seed: 3, Seconds: 0.5, Trace: trace, Dir: dir, Tiny: true}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestTamperedReferenceFails corrupts one stored reference bit and checks
// that the run reports the mismatch as failed jobs.
func TestTamperedReferenceFails(t *testing.T) {
	for _, name := range []string{"char-half", "service"} {
		cfg := config{Workload: name, Seed: 4, Seconds: 0.3, Dir: t.TempDir(), Tiny: true}
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(inputDir(cfg), "inputs.json")
		in, err := readInputs(inputDir(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for i := range in.Refs {
			in.Refs[i].Bands[0].PeakSigma ^= 1
		}
		if err := writeJSON(path, in); err != nil {
			t.Fatal(err)
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: tampered reference gave correct=%v failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}
