// Kill-and-restart harness: the durability acceptance test for the -store
// flag. A child passivityd (this test binary re-exec'd in daemon mode) is
// SIGKILLed at seeded-random delays mid-solve, restarted on the same store,
// and killed again until the job finally completes; the surviving report
// must be gob-identical to one from an uninterrupted daemon. SIGKILL (not
// SIGTERM) means no drain, no deferred Close, no atexit flushing — the
// store sees exactly what fsync committed, including torn tails.
//
// The timeline (spawns, kills, recoveries) is appended to the file named by
// $CRASH_HARNESS_LOG when set (CI uploads it as an artifact on failure),
// else to a file under the test's TempDir.
package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

const crashChildEnv = "PASSIVITYD_CRASH_CHILD"

// TestMain doubles as the child entry point: with PASSIVITYD_CRASH_CHILD=1
// the test binary IS passivityd (same run() as the real command), so the
// harness crashes the genuine daemon code path, not a mock.
func TestMain(m *testing.M) {
	if os.Getenv(crashChildEnv) == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "passivityd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// harnessLog is the shared crash timeline, written both to the artifact
// file and (via t.Logf on the printf path's callers) to the test log.
type harnessLog struct {
	mu sync.Mutex
	f  *os.File
}

func openHarnessLog(t *testing.T) *harnessLog {
	t.Helper()
	path := os.Getenv("CRASH_HARNESS_LOG")
	var f *os.File
	var err error
	if path != "" {
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	} else {
		path = filepath.Join(t.TempDir(), "crash-harness.log")
		f, err = os.Create(path)
	}
	if err != nil {
		t.Fatalf("open harness log: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	t.Logf("crash-harness timeline: %s", path)
	return &harnessLog{f: f}
}

func (l *harnessLog) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.f, "%s ", time.Now().Format("15:04:05.000"))
	fmt.Fprintf(l.f, format, args...)
	fmt.Fprintln(l.f)
}

// Write lets the child's stderr stream straight into the timeline.
func (l *harnessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Write(p)
}

// child is one spawned passivityd process.
type child struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	recovered int    // jobs replayed from the store at boot
}

// spawnChild starts a daemon on the given store and blocks until it prints
// its listening line (so the recovery replay, if any, has completed).
func spawnChild(t *testing.T, lg *harnessLog, storePath string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-workers", "2", "-store", storePath)
	cmd.Env = append(os.Environ(), crashChildEnv+"=1")
	cmd.Stderr = lg
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn child: %v", err)
	}
	c := &child{cmd: cmd, recovered: -1}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		lg.printf("child[%d]: %s", cmd.Process.Pid, line)
		if rest, ok := strings.CutPrefix(line, "passivityd: recovered "); ok {
			fmt.Sscanf(rest, "%d", &c.recovered)
		}
		if rest, ok := strings.CutPrefix(line, "passivityd: listening on "); ok {
			c.base = "http://" + strings.Fields(rest)[0]
			break
		}
	}
	if c.base == "" {
		c.kill()
		t.Fatalf("child[%d] exited before listening (scan err: %v)", cmd.Process.Pid, sc.Err())
	}
	go func() {
		for sc.Scan() {
			lg.printf("child[%d]: %s", cmd.Process.Pid, sc.Text())
		}
	}()
	return c
}

// kill SIGKILLs the child and reaps it. Errors are ignored: the process may
// already be gone, which is fine for a crash harness.
func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
}

var harnessClient = &http.Client{Timeout: 2 * time.Second}

type harnessJobDoc struct {
	ID     string            `json:"id"`
	State  string            `json:"state"`
	Error  string            `json:"error,omitempty"`
	Report *server.ReportDoc `json:"report,omitempty"`
}

func (c *child) postJob(spec string) (string, error) {
	resp, err := harnessClient.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var doc harnessJobDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return "", err
	}
	return doc.ID, nil
}

func (c *child) getJob(id string) (*harnessJobDoc, error) {
	resp, err := harnessClient.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get job: %s", resp.Status)
	}
	var doc harnessJobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// runCrashCase drives one job on one store through up to maxKills SIGKILLs
// to completion, returning the terminal report, how many kills landed and
// the solve time when the first generation ran uninterrupted (zero when
// it was killed). Each kill is armed at a random 5–50% of solve, the
// uninterrupted solve time, so it lands inside live Arnoldi sweeps however
// fast the host solves. Every kill fires only while the job is not yet
// terminal (the poll loop checks state right up to the kill instant), so
// each one interrupts live solver work — a checkpoint-boundary resume, not
// a terminal replay.
func runCrashCase(t *testing.T, lg *harnessLog, storePath, spec string, rng *rand.Rand, maxKills int, solve time.Duration) (*server.ReportDoc, int, time.Duration) {
	t.Helper()
	kills := 0
	var submitted time.Time
	var firstRun time.Duration
	const maxCycles = 12
	for cycle := 0; cycle < maxCycles; cycle++ {
		c := spawnChild(t, lg, storePath)
		if cycle == 0 {
			if c.recovered != 0 {
				c.kill()
				t.Fatalf("fresh store recovered %d jobs", c.recovered)
			}
			id, err := c.postJob(spec)
			if err != nil {
				c.kill()
				t.Fatalf("submit: %v", err)
			}
			submitted = time.Now()
			lg.printf("cycle 0: submitted %s", id)
		} else if c.recovered != 1 {
			c.kill()
			t.Fatalf("cycle %d: recovered %d job(s), want 1", cycle, c.recovered)
		}
		var killAt time.Time
		if kills < maxKills {
			delay := time.Duration(float64(solve) * (0.05 + 0.45*rng.Float64()))
			killAt = time.Now().Add(delay)
			lg.printf("cycle %d: arming SIGKILL in %v", cycle, delay)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			if !killAt.IsZero() && time.Now().After(killAt) {
				c.kill()
				kills++
				lg.printf("cycle %d: SIGKILL landed mid-run", cycle)
				break
			}
			doc, err := c.getJob("job-1")
			if err == nil {
				switch doc.State {
				case "done":
					if cycle == 0 {
						firstRun = time.Since(submitted)
					}
					lg.printf("cycle %d: job done (%d solver shifts this generation, %d crossings)",
						cycle, doc.Report.Solver.ShiftsProcessed, len(doc.Report.Crossings))
					c.kill()
					return doc.Report, kills, firstRun
				case "failed", "canceled":
					c.kill()
					t.Fatalf("cycle %d: job reached %q: %s", cycle, doc.State, doc.Error)
				}
			}
			if time.Now().After(deadline) {
				c.kill()
				t.Fatalf("cycle %d: job did not finish within 60s", cycle)
			}
			time.Sleep(3 * time.Millisecond)
		}
	}
	t.Fatalf("job did not finish within %d crash cycles", maxCycles)
	return nil, 0, 0
}

// gobSansSolver serializes a report with its schedule-dependent solver
// telemetry zeroed: the deterministic sections must match bit-exactly.
func gobSansSolver(t *testing.T, doc *server.ReportDoc) []byte {
	t.Helper()
	d := *doc
	d.Solver = server.SolverDoc{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrashResumeEquivalence is the headline durability guarantee on three
// shrunk Table-I cases: a daemon SIGKILLed at randomized points mid-solve
// and restarted on the same store must converge to a report gob-identical
// to an uninterrupted run's. Kill delays are drawn from the uninterrupted
// reference run's solve time (order 125: tens to hundreds of ms on two
// workers), so they land inside live Arnoldi sweeps rather than before or
// after them.
func TestCrashResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child daemons")
	}
	lg := openHarnessLog(t)
	for _, id := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("case%d", id), func(t *testing.T) {
			const order = 125
			spec := fmt.Sprintf(`{"model":{"case":{"id":%d,"order":%d}},"char":{"seed":5,"threads":2}}`, id, order)
			lg.printf("=== case %d (order %d) ===", id, order)

			lg.printf("case %d: uninterrupted reference run", id)
			ref, refKills, solve := runCrashCase(t, lg, filepath.Join(t.TempDir(), "ref.jlog"), spec,
				rand.New(rand.NewSource(int64(100+id))), 0, 0)
			if refKills != 0 {
				t.Fatalf("reference run recorded %d kills", refKills)
			}
			if len(ref.Bands) == 0 {
				t.Fatal("reference report has no bands")
			}

			rng := rand.New(rand.NewSource(int64(id)))
			maxKills := 2 + rng.Intn(3)
			lg.printf("case %d: crash run, up to %d kills, reference solve %v", id, maxKills, solve)
			got, kills, _ := runCrashCase(t, lg, filepath.Join(t.TempDir(), "crash.jlog"), spec, rng, maxKills, solve)
			if kills < 1 {
				t.Fatalf("no kill landed mid-run: solve finished before the first delay (reference solve %v)", solve)
			}
			if !bytes.Equal(gobSansSolver(t, ref), gobSansSolver(t, got)) {
				t.Fatalf("resumed report diverges from uninterrupted run after %d kill(s):\nref: %+v\ngot: %+v",
					kills, ref, got)
			}
			lg.printf("case %d: PASS — %d kill(s), report gob-identical (%d crossings, %d bands)",
				id, kills, len(got.Crossings), len(got.Bands))
			t.Logf("case %d: %d kill(s), resumed report gob-identical (%d crossings, %d bands, ref %d shifts / final generation %d)",
				id, kills, len(got.Crossings), len(got.Bands),
				ref.Solver.ShiftsProcessed, got.Solver.ShiftsProcessed)
		})
	}
}
