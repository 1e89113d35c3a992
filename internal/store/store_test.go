package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/statespace"
)

// testModel builds a minimal valid model (1 port, two states) with
// irrational entries so bit-exact round-tripping is actually exercised.
func testModel() *statespace.Model {
	d := mat.NewDense(1, 1)
	d.Data[0] = 0.25

	c := mat.NewDense(1, 2)
	c.Data[0] = math.Pi
	c.Data[1] = -math.Sqrt2

	return &statespace.Model{
		P: 1,
		D: d,
		Cols: []statespace.Column{{
			Blocks: []statespace.Block{{Size: 2, Sigma: -0.5, Omega: 3.75, B1: 1, B2: 0.125}},
			C:      c,
		}},
	}
}

func testCheckpoint(seq int) core.Checkpoint {
	ck := core.Checkpoint{
		Seq:              seq,
		OmegaMax:         10.5,
		NextID:           seq + 3,
		Completed:        seq,
		TentativeDeleted: 1,
		Tentative: []core.IntervalCheckpoint{
			{ID: seq + 1, Lo: 0.1, Hi: 2.5, Shift: 1.3, EdgeLeft: true},
			{ID: seq + 2, Lo: 2.5, Hi: 10.5, Shift: 5.0, EdgeRite: true},
		},
	}
	if seq > 0 {
		ck.Out = &core.ShiftCheckpoint{
			Omega:       1.5,
			Radius:      0.75,
			Worker:      2,
			Eigenvalues: []complex128{complex(0.1, 1.4), complex(-0.1, 1.6)},
			ResidualsM:  []float64{1e-12, 2e-12},
			Restarts:    3,
			OpApplies:   240,
		}
	}
	return ck
}

func openPath(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

// TestStoreRoundTrip writes every record type, reopens, and checks the
// replayed job state field for field (floats must be bit-identical).
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	m := testModel()

	if err := s.AppendJobStart("job-1", []byte(`{"priority":"batch"}`), m); err != nil {
		t.Fatal(err)
	}
	ck0, ck1 := testCheckpoint(0), testCheckpoint(1)
	if err := s.AppendCoreCheckpoint("job-1", ck0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", ck1); err != nil {
		t.Fatal(err)
	}
	eck := passivity.EnforceCheckpoint{
		Iter:         2,
		Cumulative:   0.125,
		InitialWorst: 1.25,
		SolverTotals: core.Stats{ShiftsProcessed: 7, Restarts: 12, OpApplies: 900, Elapsed: 1234},
		Residues:     [][]float64{{math.Pi, -math.Sqrt2}},
	}
	if err := s.AppendEnforceCheckpoint("job-1", eck); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent("job-1", EventRecord{Seq: 0, Type: "status", Data: []byte(`{"state":"running"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent("job-1", EventRecord{Seq: 1, Type: "crossing", Data: []byte(`{"omega":1.5}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJobStart("job-2", []byte(`{}`), m); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTerminal("job-2", TerminalRecord{State: "done", Doc: []byte(`{"id":"job-2"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openPath(t, path)
	defer s2.Close()
	jobs := s2.Recovered()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	j1 := jobs[0]
	if j1.ID != "job-1" || string(j1.Spec) != `{"priority":"batch"}` {
		t.Fatalf("job-1 identity: %q %q", j1.ID, j1.Spec)
	}
	if j1.Terminal != nil {
		t.Fatal("job-1 should be incomplete")
	}
	if j1.Model.P != 1 || j1.Model.Cols[0].C.Data[0] != math.Pi || j1.Model.Cols[0].C.Data[1] != -math.Sqrt2 {
		t.Fatalf("model round trip lost bits: %+v", j1.Model.Cols[0].C.Data)
	}
	if j1.Model.Cols[0].Blocks[0] != m.Cols[0].Blocks[0] {
		t.Fatalf("block round trip: %+v", j1.Model.Cols[0].Blocks[0])
	}
	want := &core.ResumeState{}
	want.Apply(ck0)
	want.Apply(ck1)
	if !reflect.DeepEqual(j1.Core, want) {
		t.Fatalf("core resume state:\n got %+v\nwant %+v", j1.Core, want)
	}
	if !reflect.DeepEqual(j1.Enforce, &eck) {
		t.Fatalf("enforce checkpoint:\n got %+v\nwant %+v", j1.Enforce, &eck)
	}
	if len(j1.Events) != 2 || j1.Events[1].Type != "crossing" || string(j1.Events[1].Data) != `{"omega":1.5}` {
		t.Fatalf("events: %+v", j1.Events)
	}
	j2 := jobs[1]
	if j2.Terminal == nil || j2.Terminal.State != "done" || string(j2.Terminal.Doc) != `{"id":"job-2"}` {
		t.Fatalf("job-2 terminal: %+v", j2.Terminal)
	}
}

// legacyEnforceCheckpoint is the enforce checkpoint that legacyEnforceRecord
// encodes, as the current decoder must replay it.
var legacyEnforceCheckpoint = passivity.EnforceCheckpoint{
	Iter:         3,
	Cumulative:   0.125,
	InitialWorst: 1.25,
	SolverTotals: core.Stats{ShiftsProcessed: 7, TentativeDeleted: 2, Restarts: 12, OpApplies: 900, Elapsed: 1234},
	Residues:     [][]float64{{math.Pi, -math.Sqrt2}},
}

// legacyEnforceRecord hand-encodes legacyEnforceCheckpoint for job-1 in the
// enforce-record layout, with the given values in the retired ω_max carry
// slot and warm-start seed slot.
func legacyEnforceRecord(carriedOmegaMax float64, carried bool, seeds []float64) []byte {
	ck := legacyEnforceCheckpoint
	var e enc
	e.u8(recEnforceCheckpoint)
	e.str("job-1")
	e.varint(int64(ck.Iter))
	e.f64(ck.Cumulative)
	e.f64(carriedOmegaMax)
	e.bool(carried)
	e.f64(ck.InitialWorst)
	e.varint(int64(ck.SolverTotals.ShiftsProcessed))
	e.varint(int64(ck.SolverTotals.TentativeDeleted))
	e.varint(int64(ck.SolverTotals.Restarts))
	e.varint(int64(ck.SolverTotals.OpApplies))
	e.varint(int64(ck.SolverTotals.Elapsed))
	e.f64s(seeds)
	e.uvarint(uint64(len(ck.Residues)))
	for _, r := range ck.Residues {
		e.f64s(r)
	}
	return e.buf
}

// replayEnforceRecord appends job-1's start and the raw enforce record rec
// to a fresh log, reopens it, and returns the replayed enforce checkpoint.
func replayEnforceRecord(t *testing.T, rec []byte) *passivity.EnforceCheckpoint {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.append(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openPath(t, path)
	defer s2.Close()
	jobs := s2.Recovered()
	if len(jobs) != 1 || jobs[0].Enforce == nil {
		t.Fatalf("want job-1 with an enforce checkpoint, got %+v", jobs)
	}
	return jobs[0].Enforce
}

// TestStoreReadsWarmSeedEnforceRecord: logs written while enforcement
// still warm-started carry non-empty crossing seeds in the enforce
// checkpoint's seed slot. Such a record must still replay, with the seeds
// discarded and every other field intact.
func TestStoreReadsWarmSeedEnforceRecord(t *testing.T) {
	ck := replayEnforceRecord(t, legacyEnforceRecord(11.5, true, []float64{1.5, 2.25, 3.125}))
	if !reflect.DeepEqual(ck, &legacyEnforceCheckpoint) {
		t.Fatalf("enforce checkpoint:\n got %+v\nwant %+v", ck, &legacyEnforceCheckpoint)
	}
}

// TestStoreReadsOmegaMaxCarryEnforceRecord: logs written while
// enforcement carried ω_max across iterations hold a bound and an active
// flag in the enforce checkpoint's carry slot. Such a record must still
// replay, with the slot discarded and every other field intact; the
// current encoder writes the same layout with the slot zeroed, and its
// records round-trip.
func TestStoreReadsOmegaMaxCarryEnforceRecord(t *testing.T) {
	ck := replayEnforceRecord(t, legacyEnforceRecord(11.5, true, nil))
	if !reflect.DeepEqual(ck, &legacyEnforceCheckpoint) {
		t.Fatalf("enforce checkpoint:\n got %+v\nwant %+v", ck, &legacyEnforceCheckpoint)
	}
	var e enc
	e.u8(recEnforceCheckpoint)
	e.str("job-1")
	encodeEnforceCheckpoint(&e, ck)
	if want := legacyEnforceRecord(0, false, nil); !bytes.Equal(e.buf, want) {
		t.Fatalf("encoded record changed layout:\n got %x\nwant %x", e.buf, want)
	}
	if got := replayEnforceRecord(t, e.buf); !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, ck)
	}
}

// TestStoreTornTail appends records, then truncates the file at every
// possible byte length down to the end of the first record: reopening must
// always succeed and keep exactly the records whose frames survived whole.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int64(len(full))
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(len(full)) - 1; cut >= firstLen; cut-- {
		p := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(p)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		jobs := s2.Recovered()
		if len(jobs) != 1 || jobs[0].Core != nil {
			t.Fatalf("cut=%d: want job-1 with no checkpoint, got %d jobs", cut, len(jobs))
		}
		// The torn tail must be gone from disk.
		if fi, err := os.Stat(p); err != nil || fi.Size() != firstLen {
			t.Fatalf("cut=%d: file size %d after recovery, want %d", cut, fi.Size(), firstLen)
		}
		// And the log must accept appends at the truncated boundary.
		if err := s2.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3 := openPath(t, p)
		if jobs := s3.Recovered(); len(jobs) != 1 || jobs[0].Core == nil || jobs[0].Core.Seq != 0 {
			t.Fatalf("cut=%d: append after recovery not replayed", cut)
		}
		s3.Close()
	}
}

// TestStoreBitFlip corrupts one payload byte of a committed (non-tail)
// record: recovery treats the mismatching frame as the start of the torn
// region and truncates it AND everything after it — prefix consistency,
// never a gap.
func TestStoreBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	firstLen := fileSize(t, path)
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstLen+8+4] ^= 0x40 // one payload byte of the first checkpoint frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openPath(t, path)
	defer s2.Close()
	jobs := s2.Recovered()
	if len(jobs) != 1 || jobs[0].Core != nil {
		t.Fatalf("want job-1 with both checkpoints dropped, got %+v", jobs)
	}
	if got := fileSize(t, path); got != firstLen {
		t.Fatalf("file size %d after recovery, want %d", got, firstLen)
	}
}

// TestStoreOrphanDiscard replays a crashed generation that logged
// checkpoints 0 and 2 (1 lost in flight): the fold stops at the contiguous
// prefix, and after a resume marker the orphan seq-2 must not conflict
// with the resumed generation re-emitting seqs 1 and 2.
func TestStoreOrphanDiscard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openPath(t, path)
	jobs := s2.Recovered()
	if jobs[0].Core == nil || jobs[0].Core.Seq != 0 {
		t.Fatalf("fold must stop at seq 0, got %+v", jobs[0].Core)
	}
	// Recovery fence + the resumed generation's re-emissions.
	if err := s2.AppendResumeMarker("job-1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendCoreCheckpoint("job-1", testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendCoreCheckpoint("job-1", testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3 := openPath(t, path)
	defer s3.Close()
	jobs = s3.Recovered()
	if jobs[0].Core == nil || jobs[0].Core.Seq != 2 || len(jobs[0].Core.Outs) != 2 {
		t.Fatalf("resumed generation fold: %+v", jobs[0].Core)
	}
}

// TestStoreScratchMarker: a job with no committed checkpoint is restarted
// from scratch (marker seq −1) and the new generation re-emits from 0.
func TestStoreScratchMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendResumeMarker("job-1", -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openPath(t, path)
	defer s2.Close()
	if jobs := s2.Recovered(); jobs[0].Core == nil || jobs[0].Core.Seq != 0 {
		t.Fatalf("scratch marker fold: %+v", jobs[0].Core)
	}
}

// TestStoreRejectsForeignFile: a file that is not a job log must be
// refused, not silently truncated to nothing.
func TestStoreRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notalog")
	if err := os.WriteFile(path, []byte("definitely not a job log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a foreign file")
	}
}

// TestStoreTornMagic: a crash while writing the very first bytes leaves a
// strict prefix of the magic; recovery treats that as an empty log.
func TestStoreTornMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	if err := os.WriteFile(path, []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openPath(t, path)
	defer s.Close()
	if len(s.Recovered()) != 0 {
		t.Fatal("torn magic should recover as empty")
	}
	if err := s.AppendJobStart("job-1", nil, testModel()); err != nil {
		t.Fatal(err)
	}
}

// TestStoreEventGapRejected: committed (CRC-valid) events with a seq gap
// are corruption, not a torn tail — replay must fail with a positioned
// error rather than resume with a silently incomplete stream.
func TestStoreEventGapRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent("job-1", EventRecord{Seq: 1, Type: "status"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(path); err == nil || !bytes.Contains([]byte(err.Error()), []byte("seq")) {
		t.Fatalf("want positioned seq error, got %v", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestStoreStragglersAfterTerminal: the dying generation's checkpoint and
// event callbacks can lose the append race against the watcher's terminal
// record. Such stragglers are valid committed frames; replay must treat
// the terminal document as authoritative and skip them, not fail the
// whole log.
func TestStoreStragglersAfterTerminal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s := openPath(t, path)
	if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendTerminal("job-1", TerminalRecord{State: "done", Doc: []byte(`{"id":"job-1"}`)}); err != nil {
		t.Fatal(err)
	}
	// Stragglers: a late shift commit and a late event.
	if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent("job-1", EventRecord{Seq: 0, Type: "progress"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openPath(t, path)
	defer s2.Close()
	jobs := s2.Recovered()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.Terminal == nil || j.Terminal.State != "done" {
		t.Fatalf("terminal lost: %+v", j.Terminal)
	}
	if j.Core == nil || j.Core.Seq != 0 {
		t.Fatalf("pre-terminal checkpoint prefix lost: %+v", j.Core)
	}
	if len(j.Events) != 0 {
		t.Fatalf("straggler event applied: %+v", j.Events)
	}
}
