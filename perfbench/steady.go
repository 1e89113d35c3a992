package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The steadiness report: run each workload several times, each run in a
// fresh process with its own seed, and print every end-to-end metric's
// median, quartiles and spread (interquartile range over median, the
// quantity a regression check compares with the metric's bound). It also
// shows the three properties noisy benchmarks lose: warm-up jobs are
// verified but never timed, one seed always gives the same inputs and job
// order (the first seed runs twice and the input digests must agree), and
// no percentile is reported without ten samples beyond it.

// benchmarkSpec is the part of BENCHMARK.json the report uses.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runOutput struct {
	res    result
	detail map[string]any
}

func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload, each with its own seed")
	names := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	seconds := fs.Float64("seconds", 20, "measured window per run")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var spec benchmarkSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var list []string
	if *names != "" {
		list = strings.Split(*names, ",")
	} else {
		for _, w := range spec.Workloads {
			list = append(list, w.Name)
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	steady := true
	for _, w := range list {
		var outs []runOutput
		for i := 0; i < *runs; i++ {
			o, err := runOnce(exe, w, *seed0+int64(i), *seconds)
			if err != nil {
				return err
			}
			outs = append(outs, o)
		}
		again, err := runOnce(exe, w, *seed0, *seconds)
		if err != nil {
			return err
		}
		ok := report(w, outs, again, bounds)
		steady = steady && ok
	}
	if !steady {
		return errors.New("some spread reached a third of its bound")
	}
	return nil
}

// runOnce runs one untraced benchmark process and parses its result line
// and detail line.
func runOnce(exe, workload string, seed int64, seconds float64) (runOutput, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return runOutput{}, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	var o runOutput
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o.res); err != nil {
		return o, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "perfbench-detail "); ok {
			if err := json.Unmarshal([]byte(rest), &o.detail); err != nil {
				return o, err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", workload, seed)
	return o, nil
}

// report prints one workload's table and returns whether every spread
// except setup_s stayed below a third of its bound.
func report(workload string, outs []runOutput, again runOutput, bounds map[string]float64) bool {
	fmt.Printf("\n== %s: %d runs (seeds vary)\n", workload, len(outs))
	fmt.Printf("%-16s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	names := make([]string, 0, len(outs[0].res.Metrics))
	for n := range outs[0].res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		var vals []float64
		for _, o := range outs {
			vals = append(vals, o.res.Metrics[n].Value)
		}
		q := quartiles(vals)
		s := 0.0
		if q[1] != 0 {
			s = (q[2] - q[0]) / q[1]
		}
		flag := ""
		if b := bounds[n]; n != "setup_s" && s >= b/3 {
			flag = "  <- spread ≥ bound/3"
			ok = false
		}
		fmt.Printf("%-16s %12.6g %12.6g %12.6g %8.4f %8.2f%s  runs: %.4g\n", n, q[0], q[1], q[2], s, bounds[n], flag, vals)
	}
	var failed, attempted int
	for _, o := range outs {
		failed += o.res.Failed
		attempted += o.res.Attempted
	}
	first := outs[0].detail
	fmt.Printf("jobs: %d attempted, %d failed; warm-up per run: %v (verified, untimed); measured per run: %v\n",
		attempted, failed, first["jobs_warmup"], first["jobs_measured"])
	fmt.Printf("p90 (reported only with >=10 samples beyond it): %v from %v samples\n",
		first["latency_p90_s"], first["latency_counts"])
	same := first["inputs_digest"] == again.detail["inputs_digest"]
	fmt.Printf("same seed, same inputs and job order: %v (digest %v)\n", same, first["inputs_digest"])
	return ok && same && failed == 0
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	var out [3]float64
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}
