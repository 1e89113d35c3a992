package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// faultFile wraps a real file and injects one failure: a short write, a
// torn write (half the buffer reaches the file, then error), or an fsync
// error, on the K-th call of that kind. Everything else passes through, so
// the on-disk state is exactly what a real crashed process would leave.
type faultFile struct {
	f          *os.File
	mode       string // "short", "torn", "sync"
	k          int    // 1-based call index to fail at
	writeCalls int
	syncCalls  int
}

var errInjected = errors.New("injected fault")

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.writeCalls++
	if ff.writeCalls == ff.k {
		switch ff.mode {
		case "short":
			return 0, errInjected
		case "torn":
			n, _ := ff.f.Write(p[:len(p)/2])
			return n, errInjected
		}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.syncCalls++
	if ff.mode == "sync" && ff.syncCalls == ff.k {
		return errInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error          { return ff.f.Truncate(size) }
func (ff *faultFile) Seek(o int64, w int) (int64, error) { return ff.f.Seek(o, w) }
func (ff *faultFile) Close() error                       { return ff.f.Close() }

// TestStoreFaultInjection drives the append path into a short write, a
// torn write, and an fsync error at the 3rd record, and asserts the
// failure contract: the failing append errors, the store latches broken
// (ErrStoreBroken on all later appends), and a reopen of the same file
// recovers every record committed BEFORE the fault — the failed
// checkpoint never corrupts its predecessors.
func TestStoreFaultInjection(t *testing.T) {
	for _, mode := range []string{"short", "torn", "sync"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.log")
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// Fail the 3rd record's write (or its sync). Call 1 is the
			// magic header; records are one write + one sync each.
			ff := &faultFile{f: f, mode: mode, k: 4}
			if mode == "sync" {
				ff.k = 4 // magic sync + 2 record syncs precede it
			}
			s, err := openWith(ff)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(0)); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(1)); !errors.Is(err, errInjected) {
				t.Fatalf("append over fault: %v", err)
			}
			// The store is latched broken: no later append may pretend to
			// commit.
			if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(2)); !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("append after fault: %v", err)
			}
			if s.Err() == nil {
				t.Fatal("Err() nil after fault")
			}
			s.Close()

			// Reopen the real file: both committed records must replay,
			// and nothing of the failed one may surface.
			s2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after %s fault: %v", mode, err)
			}
			defer s2.Close()
			jobs := s2.Recovered()
			if len(jobs) != 1 {
				t.Fatalf("recovered %d jobs, want 1", len(jobs))
			}
			if jobs[0].Core == nil || jobs[0].Core.Seq != 0 || len(jobs[0].Core.Outs) != 0 {
				t.Fatalf("committed prefix after %s fault: %+v", mode, jobs[0].Core)
			}
		})
	}
}

// TestStoreFaultSweep moves a torn write across every record of a longer
// run: for each K, the reopened store must hold exactly the records that
// were acknowledged before the fault — no more, no fewer.
func TestStoreFaultSweep(t *testing.T) {
	const records = 6
	for k := 2; k <= records+1; k++ { // write call 1 is the magic
		path := filepath.Join(t.TempDir(), fmt.Sprintf("jobs-%d.log", k))
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		s, err := openWith(&faultFile{f: f, mode: "torn", k: k})
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		if err := s.AppendJobStart("job-1", []byte(`{}`), testModel()); err == nil {
			acked++
			for i := 0; i < records-1; i++ {
				if err := s.AppendCoreCheckpoint("job-1", testCheckpoint(i)); err != nil {
					break
				}
				acked++
			}
		}
		s.Close()
		if acked != k-2 {
			t.Fatalf("k=%d: %d acknowledged appends, want %d", k, acked, k-2)
		}

		s2, err := Open(path)
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		jobs := s2.Recovered()
		s2.Close()
		switch {
		case acked == 0:
			if len(jobs) != 0 {
				t.Fatalf("k=%d: recovered %d jobs from empty commit", k, len(jobs))
			}
		case acked == 1:
			if len(jobs) != 1 || jobs[0].Core != nil {
				t.Fatalf("k=%d: want bare job, got %+v", k, jobs)
			}
		default:
			if len(jobs) != 1 || jobs[0].Core == nil || jobs[0].Core.Seq != acked-2 {
				t.Fatalf("k=%d: want prefix through seq %d, got %+v", k, acked-2, jobs[0].Core)
			}
		}
	}
}

var _ io.Reader = (*faultFile)(nil)
