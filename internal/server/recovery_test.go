// Restart-recovery battery: every test builds a crash image — a byte
// prefix of a finished daemon's durable job log, which is exactly what a
// SIGKILL at that point would have left on disk — and stands a second
// daemon up over it. Recovered terminal jobs must serve their persisted
// documents verbatim; recovered incomplete jobs must resume from their
// last checkpoint and finish with a report bit-identical to the
// uninterrupted run's, doing strictly less eigensolver work than a cold
// start.
package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/store"
)

// Record tags of the store's framing (see internal/store: each frame
// payload leads with a one-byte record tag).
const (
	tagJobStart       = 1
	tagCoreCheckpoint = 2
	tagEvent          = 4
	tagResumeMarker   = 5
	tagTerminal       = 6
)

// storedDaemon is one daemon generation over a durable store.
type storedDaemon struct {
	srv *server.Server
	ts  *httptest.Server
	eng *repro.Fleet
	st  *store.Store
}

// drain waits until the daemon's jobs have returned. The watcher marks a
// job done before it appends the terminal record, so a test reads the log
// only after draining.
func (d *storedDaemon) drain(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.DrainJobs(ctx); err != nil {
		t.Fatal(err)
	}
}

func (d *storedDaemon) close() {
	d.ts.Close()
	d.eng.Close()
	d.st.Close()
}

// newStoredDaemon stands a daemon generation up over the log at path.
func newStoredDaemon(t *testing.T, path string, workers int) *storedDaemon {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	eng := repro.NewFleetEngine(repro.FleetOptions{Workers: workers})
	srv := server.New(server.Config{Engine: eng, Store: st})
	return &storedDaemon{srv: srv, ts: httptest.NewServer(srv), eng: eng, st: st}
}

// logFrame is one parsed frame of the store log.
type logFrame struct {
	end int // byte offset just past this frame
	tag byte
}

// parseLog walks the log's framing (8-byte magic, then [len][crc][payload]
// frames) without decoding payloads. Any byte prefix of the file cut at a
// frame boundary is a valid crash image.
func parseLog(t *testing.T, data []byte) []logFrame {
	t.Helper()
	if len(data) < 8 {
		t.Fatalf("store file too short: %d bytes", len(data))
	}
	off := 8
	var frames []logFrame
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			break
		}
		frames = append(frames, logFrame{end: off + 8 + n, tag: data[off+8]})
		off += 8 + n
	}
	return frames
}

// countTag counts frames with the given tag, optionally only past the
// last resume marker (the current generation's records).
func countTag(frames []logFrame, tag byte, afterLastMarker bool) int {
	start := 0
	if afterLastMarker {
		for i, fr := range frames {
			if fr.tag == tagResumeMarker {
				start = i + 1
			}
		}
	}
	n := 0
	for _, fr := range frames[start:] {
		if fr.tag == tag {
			n++
		}
	}
	return n
}

// writePrefix writes the crash image data[:end] to a fresh log path.
func writePrefix(t *testing.T, dir, name string, data []byte, end int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data[:end], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoveryFromCrashImages is the server-level resume battery. One
// uninterrupted run produces the reference report and the full log; three
// crash images cut from it — right after admission, mid-solve after the
// second checkpoint, and just before the terminal record — each recover
// on a fresh daemon to a report gob-identical to the reference.
//
// The job runs with char.threads 1. On a 1-worker daemon its shifts then
// run one at a time, so the reference's checkpoint count is exact and the
// mid-solve resume can be held to strictly less work than it; at 2
// workers the count depends on scheduling and a bound taken from one run
// would itself be a sample. The report does not depend on the schedule,
// so every crash image also recovers on a 2-worker daemon and is held to
// the same bits.
func TestRecoveryFromCrashImages(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.log")
	a := newStoredDaemon(t, pathA, 1)
	spec := shrunkCaseSpec(t, 2)
	spec.Char.Threads = 1
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, v := post(t, a.ts.URL+"/v1/jobs", "application/json", string(body))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	ref := waitTerminal(t, a.ts.URL, v.ID)
	if ref.State != "done" || ref.Report == nil {
		t.Fatalf("reference job ended %q err %q", ref.State, ref.Error)
	}
	a.drain(t)
	a.close()

	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	frames := parseLog(t, data)
	if frames[0].tag != tagJobStart {
		t.Fatalf("log does not start with a job-start record (tag %d)", frames[0].tag)
	}
	// The final checkpoint callback can race the watcher's terminal append,
	// so the terminal record is near — not necessarily at — the log's end.
	terminalIdx := -1
	for i, fr := range frames {
		if fr.tag == tagTerminal {
			terminalIdx = i
			break
		}
	}
	if terminalIdx < 1 {
		t.Fatal("uninterrupted log has no terminal record")
	}
	totalCks := countTag(frames, tagCoreCheckpoint, false)
	if totalCks < 4 {
		t.Fatalf("reference run committed only %d checkpoints; need a longer solve", totalCks)
	}

	// Cut points: after admission (scratch resume), after the 2nd shift
	// checkpoint (mid-solve resume), and one frame short of the terminal
	// record (terminal synthesis from the persisted report event).
	admission := frames[0].end
	nCk := 0
	midSolve := 0
	for _, fr := range frames {
		if fr.tag == tagCoreCheckpoint {
			if nCk++; nCk == 2 {
				midSolve = fr.end
				break
			}
		}
	}
	preTerminal := frames[terminalIdx-1].end

	scenarios := []struct {
		name    string
		cut     int
		workers int
		// maxNewCks bounds the resumed generation's checkpoint count
		// (-1 = no bound).
		maxNewCks int
		// wantMarker: the recovery re-submitted the job (vs serving it
		// terminal straight from the log).
		wantMarker bool
	}{
		{name: "scratch", cut: admission, workers: 2, maxNewCks: -1, wantMarker: true},
		{name: "mid-solve", cut: midSolve, workers: 1, maxNewCks: totalCks - 1, wantMarker: true},
		{name: "mid-solve-2-workers", cut: midSolve, workers: 2, maxNewCks: -1, wantMarker: true},
		{name: "pre-terminal", cut: preTerminal, workers: 2, maxNewCks: -1, wantMarker: false},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			path := writePrefix(t, dir, sc.name+".log", data, sc.cut)
			b := newStoredDaemon(t, path, sc.workers)
			defer b.close()
			if n := b.srv.RecoveredJobs(); n != 1 {
				t.Fatalf("recovered %d jobs, want 1", n)
			}
			got := waitTerminal(t, b.ts.URL, v.ID)
			if got.State != "done" || got.Report == nil {
				t.Fatalf("recovered job ended %q err %q", got.State, got.Error)
			}
			if !bytes.Equal(gobBytes(t, sansSolver(*got.Report)), gobBytes(t, sansSolver(*ref.Report))) {
				t.Fatal("recovered report not bit-identical to the uninterrupted run")
			}
			b.drain(t)
			final := parseLog(t, mustRead(t, path))
			// Straggler checkpoints can trail the terminal append here too,
			// so assert presence, not position.
			if countTag(final, tagTerminal, false) == 0 {
				t.Fatal("recovered generation did not write a terminal record")
			}
			markers := countTag(final, tagResumeMarker, false)
			if sc.wantMarker && markers == 0 {
				t.Fatal("resumed generation wrote no resume marker")
			}
			if !sc.wantMarker {
				// Terminal recovery re-submits nothing: the healed log is
				// the crash image plus exactly one terminal record.
				if markers != 0 {
					t.Fatal("terminal recovery should not re-submit the job")
				}
				prefixFrames := parseLog(t, data[:sc.cut])
				if len(final) != len(prefixFrames)+1 {
					t.Fatalf("terminal heal wrote %d frames over a %d-frame image, want exactly one",
						len(final)-len(prefixFrames), len(prefixFrames))
				}
			}
			newCks := countTag(final, tagCoreCheckpoint, true)
			if sc.maxNewCks >= 0 && newCks > sc.maxNewCks {
				t.Fatalf("resumed generation committed %d checkpoints, want ≤ %d (strictly less work than the %d-checkpoint cold run)",
					newCks, sc.maxNewCks, totalCks)
			}

			// The healed log must itself recover cleanly: a third
			// generation serves the job terminal with the same report.
			c := newStoredDaemon(t, path, 2)
			defer c.close()
			third := getJob(t, c.ts.URL, v.ID)
			if third.State != "done" || third.Report == nil ||
				!bytes.Equal(gobBytes(t, sansSolver(*third.Report)), gobBytes(t, sansSolver(*ref.Report))) {
				t.Fatalf("third generation state %q: terminal replay diverged", third.State)
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoverySSEContinuity: an SSE client that lost its connection in
// the crash reconnects to the restarted daemon with ?after= and must see
// a gapless continuation — replayed persisted events first, then the
// resumed generation's live events, sequential ids throughout, exactly
// one terminal event.
func TestRecoverySSEContinuity(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.log")
	a := newStoredDaemon(t, pathA, 2)
	spec := shrunkCaseSpec(t, 2)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, v := post(t, a.ts.URL+"/v1/jobs", "application/json", string(body))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	if got := waitTerminal(t, a.ts.URL, v.ID); got.State != "done" {
		t.Fatalf("reference job ended %q err %q", got.State, got.Error)
	}
	a.close()

	data := mustRead(t, pathA)
	frames := parseLog(t, data)
	// Cut after the 3rd persisted event: the reconnecting client has seen
	// events 0..2 when the daemon dies.
	nEv, cut := 0, 0
	for _, fr := range frames {
		if fr.tag == tagEvent {
			if nEv++; nEv == 3 {
				cut = fr.end
				break
			}
		}
	}
	if cut == 0 {
		t.Fatalf("only %d persisted events in reference log", nEv)
	}
	path := writePrefix(t, dir, "b.log", data, cut)
	b := newStoredDaemon(t, path, 2)
	defer b.close()

	// Full replay from 0 across the restart.
	resp, err := http.Get(b.ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) <= 3 {
		t.Fatalf("stream has %d events, want the crashed generation's 3 plus the resumed run's", len(events))
	}
	terminals := 0
	for i, ev := range events {
		if ev.id != i {
			t.Fatalf("event %d has id %d: seq numbering broke across the restart", i, ev.id)
		}
		if ev.typ == "report" || ev.typ == "error" || ev.typ == "canceled" {
			terminals++
			if i != len(events)-1 {
				t.Fatalf("terminal event at %d of %d", i, len(events))
			}
		}
	}
	if terminals != 1 {
		t.Fatalf("%d terminal events, want exactly 1", terminals)
	}

	// Reconnect with ?after=2 (the client's last seen id): replay must
	// start exactly at 3, no gap, no duplicates.
	resp, err = http.Get(b.ts.URL + "/v1/jobs/" + v.ID + "/events?after=2")
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(tail) != len(events)-3 {
		t.Fatalf("?after=2 returned %d events, want %d", len(tail), len(events)-3)
	}
	for i, ev := range tail {
		if ev.id != i+3 {
			t.Fatalf("?after=2 event %d has id %d, want %d", i, ev.id, i+3)
		}
	}
}

// TestRecoveryIDCounterAndEnforce: after a restart the job-ID counter
// continues past recovered history, and an enforcement job resumes from
// its iteration checkpoint to a bit-identical final report.
func TestRecoveryIDCounterAndEnforce(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.log")
	a := newStoredDaemon(t, pathA, 2)
	spec := shrunkCaseSpec(t, 2)
	spec.Enforce = &server.EnforceSpec{}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, v := post(t, a.ts.URL+"/v1/jobs", "application/json", string(body))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	ref := waitTerminal(t, a.ts.URL, v.ID)
	if ref.State != "done" || ref.Report == nil || ref.Enforce == nil {
		t.Fatalf("reference enforce job ended %q err %q", ref.State, ref.Error)
	}
	a.close()

	data := mustRead(t, pathA)
	frames := parseLog(t, data)
	// Cut after the last enforce checkpoint when the run iterated;
	// otherwise fall back to mid-log (still a valid crash image).
	cut := frames[len(frames)/2].end
	for _, fr := range frames {
		if fr.tag == 3 { // enforce-checkpoint record
			cut = fr.end
		}
	}
	path := writePrefix(t, dir, "b.log", data, cut)
	b := newStoredDaemon(t, path, 2)
	defer b.close()
	got := waitTerminal(t, b.ts.URL, v.ID)
	if got.State != "done" || got.Report == nil || got.Enforce == nil {
		t.Fatalf("recovered enforce job ended %q err %q", got.State, got.Error)
	}
	if !bytes.Equal(gobBytes(t, sansSolver(*got.Report)), gobBytes(t, sansSolver(*ref.Report))) {
		t.Fatal("recovered enforcement report not bit-identical to the uninterrupted run")
	}
	if !bytes.Equal(*got.Enforce, *ref.Enforce) {
		t.Fatalf("recovered enforce summary %s != reference %s", *got.Enforce, *ref.Enforce)
	}

	// New submissions never collide with recovered history.
	status, v2 := post(t, b.ts.URL+"/v1/jobs", "application/json",
		mustJSON(t, shrunkCaseSpec(t, 1)))
	if status != http.StatusAccepted {
		t.Fatalf("post-restart submit: status %d", status)
	}
	if v2.ID == v.ID {
		t.Fatalf("restarted daemon reused job ID %s", v2.ID)
	}
	if got := waitTerminal(t, b.ts.URL, v2.ID); got.State != "done" {
		t.Fatalf("post-restart job ended %q err %q", got.State, got.Error)
	}
}

// TestRecoveryAcceptsRetiredColdStart: a job persisted while the enforce
// spec still had a cold_start switch must resume after an upgrade. The
// persisted spec decodes leniently, so the retired field is ignored and
// the job finishes with the report a fresh submission produces.
func TestRecoveryAcceptsRetiredColdStart(t *testing.T) {
	dir := t.TempDir()
	spec := shrunkCaseSpec(t, 2)
	spec.Enforce = &server.EnforceSpec{}

	a := newStoredDaemon(t, filepath.Join(dir, "a.log"), 2)
	status, v := post(t, a.ts.URL+"/v1/jobs", "application/json", mustJSON(t, spec))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	ref := waitTerminal(t, a.ts.URL, v.ID)
	a.close()
	if ref.State != "done" || ref.Report == nil || ref.Enforce == nil {
		t.Fatalf("reference enforce job ended %q err %q", ref.State, ref.Error)
	}

	m, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "b.log")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	old := `{"char":{"seed":5},"enforce":{"cold_start":true}}`
	if err := st.AppendJobStart("job-1", []byte(old), m); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b := newStoredDaemon(t, path, 2)
	defer b.close()
	got := waitTerminal(t, b.ts.URL, "job-1")
	if got.State != "done" || got.Report == nil || got.Enforce == nil {
		t.Fatalf("recovered job ended %q err %q", got.State, got.Error)
	}
	if !bytes.Equal(gobBytes(t, sansSolver(*got.Report)), gobBytes(t, sansSolver(*ref.Report))) {
		t.Fatal("recovered report not bit-identical to a fresh submission's")
	}
	if !bytes.Equal(*got.Enforce, *ref.Enforce) {
		t.Fatalf("recovered enforce summary %s != fresh %s", *got.Enforce, *ref.Enforce)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
