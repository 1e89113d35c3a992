// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public entry points — library calls
// into the passivity layer and passivityd's HTTP API — on inputs made from
// a workload seed, checks every job's output bit for bit against a
// reference, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload char-full --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run instead. The subcommand
//
//	bash perfbench/run.sh steady --runs 5 [--workloads a,b] [--seconds 20]
//
// runs each workload repeatedly in fresh processes and prints every
// metric's median and quartiles. All state (model cache, references,
// trace dumps) lives under .bench_build/perfbench in the working
// directory, which must be the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchDir holds the benchmark's cache and outputs, relative to the
// repository root.
var benchDir = filepath.Join(".bench_build", "perfbench")

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Dir holds the benchmark's cache and outputs.
	Dir string
	// Tiny shrinks every input to a few hundred states (self-test only).
	Tiny bool
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			exitOn(steadyMain(os.Args[2:]))
			return
		case "bases":
			exitOn(basesMain(os.Args[2:]))
			return
		}
	}
	exitOn(runMain(os.Args[1:]))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed (0 reproduces the named Table-I case exactly)")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root")
	}
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: benchDir}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run executes one benchmark invocation: prepare the seeded inputs and
// references (untimed), set up the program (timed, repeated), warm up
// (verified, untimed), then measure.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := ensureBases(cfg); err != nil {
		return nil, err
	}
	inDir, fresh, err := prepare(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", cfg.Workload, err)
	}
	// A reference just computed in this process by the same call the jobs
	// make has warmed the process up; otherwise an explicit warm-up runs.
	warmup := !(fresh && w.refWarms)
	if cfg.Trace {
		return traced(cfg, w, inDir, warmup)
	}
	m, err := measure(cfg, w, inDir, warmup, nil)
	if err != nil {
		return nil, err
	}
	return m.endToEnd(), nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
