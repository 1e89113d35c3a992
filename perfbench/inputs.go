package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/server"
	"repro/internal/statespace"
)

// Seeded inputs and their references.
//
// The Table-I base models are generated once per checkout (the large ones
// take about a minute each) and cached under <dir>/bases. A workload seed
// then derives its inputs cheaply: seed 0 is the base case itself, any
// other seed permutes the ports (H'(s) = Πᵀ·H(s)·Π), which keeps n, p, the
// calibrated peak, reciprocity and the crossing set while changing every
// bit the solver sees, so every seed asks for nearly the same work. The
// service workload does the same to six small shrunk Table-I models. Each
// input set is stored with a reference — crossing bits, band classes and
// peaks, and for enforcement a hash of the enforced residues — computed
// once by a direct library call and checked against the sampling oracle
// passivity.VerifyBySampling. Nothing here is timed.

// serviceOrderLen bounds how many jobs one service client can run per
// process; the job order repeats after it.
const serviceOrderLen = 4096

// inputs is the stored, seed-determined part of one workload run.
type inputs struct {
	Refs []reference `json:"refs"`
	// Order is each client's job sequence (indices into Refs), service only.
	Order [][]int `json:"order,omitempty"`
}

// reference is the expected output of one job, bit for bit.
type reference struct {
	Crossings []uint64  `json:"crossings"`
	Bands     []bandRef `json:"bands"`
	// Residues is the SHA-256 of the enforced model's residue bits and
	// Iterations the enforcement iteration count (enforce only).
	Residues   string `json:"residues,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
}

// bandRef is one band of a report: edges and peak as float bits, plus its
// class.
type bandRef struct {
	Lo, Hi, PeakOmega, PeakSigma uint64
	Violating                    bool
}

// errMismatch marks a job whose output differs from its reference.
var errMismatch = errors.New("output differs from reference")

func (r reference) check(got reference) error {
	if !reflect.DeepEqual(r, got) {
		return fmt.Errorf("%w: got %d crossings, want %d", errMismatch, len(got.Crossings), len(r.Crossings))
	}
	return nil
}

func refFromReport(rep *passivity.Report) reference {
	ref := reference{Crossings: floatBits(rep.Crossings), Bands: []bandRef{}}
	for _, b := range rep.Bands {
		ref.Bands = append(ref.Bands, bandRef{
			Lo: math.Float64bits(b.Lo), Hi: math.Float64bits(b.Hi),
			PeakOmega: math.Float64bits(b.PeakOmega), PeakSigma: math.Float64bits(b.PeakSigma),
			Violating: b.Violating,
		})
	}
	return ref
}

// refFromDoc reads the same reference out of passivityd's wire report.
func refFromDoc(doc *server.ReportDoc) reference {
	ref := reference{Crossings: floatBits(doc.Crossings), Bands: []bandRef{}}
	for _, b := range doc.Bands {
		hi := math.Inf(1)
		if b.Hi != nil {
			hi = *b.Hi
		}
		ref.Bands = append(ref.Bands, bandRef{
			Lo: math.Float64bits(b.Lo), Hi: math.Float64bits(hi),
			PeakOmega: math.Float64bits(b.PeakOmega), PeakSigma: math.Float64bits(b.PeakSigma),
			Violating: b.Violating,
		})
	}
	return ref
}

// refFromEnforce is the reference of an enforcement job.
func refFromEnforce(m *statespace.Model, rep *passivity.EnforceReport) reference {
	ref := refFromReport(rep.FinalReport)
	ref.Residues = residueHash(m)
	ref.Iterations = rep.Iterations
	return ref
}

func residueHash(m *statespace.Model) string {
	h := sha256.New()
	var buf [8]byte
	for k := range m.Cols {
		for _, v := range m.Cols[k].C.Data {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// baseCase returns the Table-I case a workload derives its inputs from,
// shrunk to a few hundred states in tiny (self-test) mode.
func baseCase(id int, tiny bool) statespace.CaseSpec {
	var spec statespace.CaseSpec
	for _, c := range append(statespace.TableICases(), statespace.ReciprocalTableICases()...) {
		if c.ID == id {
			spec = c
		}
	}
	if tiny {
		spec.N, spec.P = 96, 4
	}
	return spec
}

func baseDir(cfg config) string { return filepath.Join(cfg.Dir, "bases") }

func basePath(cfg config, spec statespace.CaseSpec) string {
	// The file name statespace.CachedCase uses.
	return filepath.Join(baseDir(cfg), fmt.Sprintf("case%02d_n%d_p%d.gob", spec.ID, spec.N, spec.P))
}

// baseRefPath holds the base case's verified reference.
func baseRefPath(cfg config, spec statespace.CaseSpec) string {
	return strings.TrimSuffix(basePath(cfg, spec), ".gob") + ".ref.json"
}

// ensureBases generates every missing base model of every workload, with
// its reference checked by passivity.VerifyBySampling. The first run in a
// checkout pays for all of them at once, in a child process so the
// generator's memory never shows in this process's peak RSS.
func ensureBases(cfg config) error {
	var missing []string
	for _, w := range workloads {
		if w.caseID == 0 {
			continue
		}
		if _, err := os.Stat(baseRefPath(cfg, baseCase(w.caseID, cfg.Tiny))); err != nil {
			missing = append(missing, strconv.Itoa(w.caseID))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	if cfg.Tiny {
		return generateBases(cfg, missing)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"bases"}, missing...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generate base models: %w", err)
	}
	return nil
}

// basesMain is the child-process entry point of ensureBases: its
// arguments are the case IDs to generate.
func basesMain(ids []string) error {
	return generateBases(config{Dir: benchDir}, ids)
}

// generateBases builds the given cases concurrently: the generator is
// single-threaded, and the large cases take about a minute each.
func generateBases(cfg config, ids []string) error {
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, s := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = generateBase(cfg, s)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func generateBase(cfg config, idText string) error {
	id, err := strconv.Atoi(idText)
	if err != nil {
		return err
	}
	spec := baseCase(id, cfg.Tiny)
	fmt.Fprintf(os.Stderr, "perfbench: generating base model case %d (n=%d, p=%d)\n", id, spec.N, spec.P)
	m, err := statespace.CachedCase(spec, baseDir(cfg))
	if err != nil {
		return err
	}
	rep, err := passivity.Characterize(m, passivity.Options{Core: core.Options{Threads: jobThreads}})
	if err != nil {
		return err
	}
	if err := passivity.VerifyBySampling(m, rep, 0); err != nil {
		return fmt.Errorf("case %d reference fails the sampling check: %w", id, err)
	}
	return writeJSON(baseRefPath(cfg, spec), inputs{Refs: []reference{refFromReport(rep)}})
}

// inputDir is where one workload seed's inputs live.
func inputDir(cfg config) string {
	name := fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed)
	if cfg.Tiny {
		name += "-tiny"
	}
	return filepath.Join(cfg.Dir, "inputs", name)
}

// prepare makes the workload seed's inputs and references unless they are
// already stored, and returns their directory and whether it made them.
func prepare(cfg config, w *workload) (string, bool, error) {
	dir := inputDir(cfg)
	if _, err := os.Stat(filepath.Join(dir, "inputs.json")); err == nil {
		return dir, false, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", false, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", false, err
	}
	in, err := w.build(cfg, w, tmp)
	if err != nil {
		return "", false, err
	}
	if err := writeJSON(filepath.Join(tmp, "inputs.json"), in); err != nil {
		return "", false, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", false, err
	}
	return dir, true, os.Rename(tmp, dir)
}

// buildPermuted stores the seed's port permutation of the workload's base
// case as model-00.gob and returns it.
func buildPermuted(cfg config, w *workload, dir string) (*statespace.Model, error) {
	base, err := statespace.LoadModel(basePath(cfg, baseCase(w.caseID, cfg.Tiny)))
	if err != nil {
		return nil, err
	}
	m := base
	if cfg.Seed != 0 {
		m = permutePorts(base, rand.New(rand.NewSource(cfg.Seed)).Perm(base.P))
	}
	return m, statespace.SaveModel(filepath.Join(dir, "model-00.gob"), m)
}

// permutePorts returns Πᵀ·H·Π as a new model: column k of the result is
// column perm[k] of m with its output rows reordered the same way.
func permutePorts(m *statespace.Model, perm []int) *statespace.Model {
	p := m.P
	out := &statespace.Model{P: p, D: mat.NewDense(p, p), Cols: make([]statespace.Column, p)}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			out.D.Set(i, j, m.D.At(perm[i], perm[j]))
		}
	}
	for k := 0; k < p; k++ {
		src := m.Cols[perm[k]]
		c := mat.NewDense(p, src.C.Cols)
		for i := 0; i < p; i++ {
			copy(c.Row(i), src.C.Row(perm[i]))
		}
		out.Cols[k] = statespace.Column{Blocks: append([]statespace.Block(nil), src.Blocks...), C: c}
	}
	return out
}

// buildChar makes a characterization workload's inputs: one permuted model
// and its reference report. The base case's reference was checked with
// passivity.VerifyBySampling when the base was generated; a permuted
// model has the same σ(jω) at every frequency, so its reference is
// checked against the verified base instead (samePassivity).
func buildChar(cfg config, w *workload, dir string) (*inputs, error) {
	m, err := buildPermuted(cfg, w, dir)
	if err != nil {
		return nil, err
	}
	rep, err := passivity.Characterize(m, passivity.Options{Core: core.Options{Threads: jobThreads}})
	if err != nil {
		return nil, err
	}
	var base inputs
	data, err := os.ReadFile(baseRefPath(cfg, baseCase(w.caseID, cfg.Tiny)))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	ref := refFromReport(rep)
	if err := samePassivity(ref, base.Refs[0]); err != nil {
		return nil, fmt.Errorf("reference disagrees with the verified base case: %w", err)
	}
	return &inputs{Refs: []reference{ref}}, nil
}

// samePassivity reports whether two references describe the same
// crossings (to 1e-9 of the largest) and band classes.
func samePassivity(a, b reference) error {
	if len(a.Crossings) != len(b.Crossings) || len(a.Bands) != len(b.Bands) {
		return fmt.Errorf("%d crossings, want %d", len(a.Crossings), len(b.Crossings))
	}
	var scale float64
	for _, c := range b.Crossings {
		scale = math.Max(scale, math.Float64frombits(c))
	}
	for i := range a.Crossings {
		if d := math.Abs(math.Float64frombits(a.Crossings[i]) - math.Float64frombits(b.Crossings[i])); d > 1e-9*scale {
			return fmt.Errorf("crossing %d differs by %g", i, d)
		}
	}
	for i := range a.Bands {
		if a.Bands[i].Violating != b.Bands[i].Violating {
			return fmt.Errorf("band %d class differs", i)
		}
	}
	return nil
}

// buildEnforce makes the enforcement workload's inputs: one permuted model
// and the reference enforcement, whose final model must sample passive.
func buildEnforce(cfg config, w *workload, dir string) (*inputs, error) {
	m, err := buildPermuted(cfg, w, dir)
	if err != nil {
		return nil, err
	}
	out, rep, err := passivity.Enforce(m, passivity.EnforceOptions{Char: passivity.Options{Core: core.Options{Threads: jobThreads}}})
	if err != nil {
		return nil, err
	}
	if !rep.FinalReport.Passive {
		return nil, errors.New("reference enforcement did not reach passivity")
	}
	if err := passivity.VerifyBySampling(out, rep.FinalReport, 0); err != nil {
		return nil, fmt.Errorf("reference fails the sampling check: %w", err)
	}
	return &inputs{Refs: []reference{refFromEnforce(out, rep)}}, nil
}

// serviceCases are the non-passive Table-I cases whose shrunk versions
// (same generator seed and calibrated peak, n=200, p=10) make the service
// workload's models: one size band, one job class.
var serviceCases = []int{1, 2, 3, 5, 7, 8}

// buildService makes the service workload's inputs: one port permutation
// per shrunk case (seed 0: none), each stored as the JSON body of an
// explicit pole–residue submission, their references (computed on exactly
// the model passivityd realizes from the body, and checked with
// passivity.VerifyBySampling), and each client's job order: seeded
// shuffles of all models, back to back, so every window runs an even mix.
func buildService(cfg config, w *workload, dir string) (*inputs, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &inputs{}
	for i, id := range serviceCases {
		c := baseCase(id, false)
		ports, order := 10, 200
		if cfg.Tiny {
			ports, order = 4, 60
		}
		gen, err := statespace.Generate(c.Seed, statespace.GenOptions{Ports: ports, Order: order, TargetPeak: c.TargetPeak})
		if err != nil {
			return nil, err
		}
		if cfg.Seed != 0 {
			gen = permutePorts(gen, rng.Perm(ports))
		}
		spec := server.JobSpec{Model: server.ModelSpec{PoleResidue: poleResidue(gen)}}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("spec-%02d.json", i)), body, 0o644); err != nil {
			return nil, err
		}
		m, err := spec.BuildModel()
		if err != nil {
			return nil, err
		}
		rep, err := passivity.Characterize(m, spec.CharOptions())
		if err != nil {
			return nil, err
		}
		if err := passivity.VerifyBySampling(m, rep, 0); err != nil {
			return nil, fmt.Errorf("reference %d fails the sampling check: %w", i, err)
		}
		in.Refs = append(in.Refs, refFromReport(rep))
	}
	in.Order = make([][]int, w.clients)
	for c := range in.Order {
		for len(in.Order[c]) < serviceOrderLen {
			in.Order[c] = append(in.Order[c], rng.Perm(len(serviceCases))...)
		}
	}
	return in, nil
}

// poleResidue converts a generated model to passivityd's explicit
// pole–residue form. The generator's blocks use exactly the realization
// statespace.FromPoleResidue builds (real pole: input 1; complex pair:
// input [2, 0], output columns [Re r, Im r]), so the server rebuilds the
// same model bit for bit.
func poleResidue(m *statespace.Model) *server.PoleResidueSpec {
	p := m.P
	spec := &server.PoleResidueSpec{D: make([][]float64, p), Poles: make([][][2]float64, p), Residues: make([][][][2]float64, p)}
	for i := 0; i < p; i++ {
		spec.D[i] = append([]float64(nil), m.D.Row(i)...)
	}
	for k, col := range m.Cols {
		res := make([][][2]float64, p)
		off := 0
		for _, b := range col.Blocks {
			spec.Poles[k] = append(spec.Poles[k], [2]float64{b.Sigma, b.Omega})
			for r := 0; r < p; r++ {
				v := [2]float64{col.C.At(r, off), 0}
				if b.Size == 2 {
					v[1] = col.C.At(r, off+1)
				}
				res[r] = append(res[r], v)
			}
			off += b.Size
		}
		spec.Residues[k] = res
	}
	return spec
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readInputs(dir string) (*inputs, error) {
	data, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("read %s: %w", dir, err)
	}
	return &in, nil
}

// inputsDigest hashes every stored input file, so two runs can show they
// saw identical inputs and job order.
func inputsDigest(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
