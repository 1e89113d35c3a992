package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/statespace"
)

// Size caps on the JSON ingest boundary. They bound the work a single
// request can demand, not the library's capabilities: a hostile or
// mistaken spec is rejected at decode time instead of tying the pool up
// in a multi-hour solve.
const (
	maxSpecPorts       = 64
	maxSpecOrder       = 4096
	maxSpecGridPoints  = 10000
	maxSpecProbePoints = 10000
	maxSpecMaxShifts   = 100000
	maxSpecMaxIters    = 100
	maxSpecWeight      = 1000
)

// JobSpec is the JSON body of a model-spec job submission: which model to
// analyze, how to schedule it, and the characterization (or enforcement)
// options. Unknown fields are rejected.
type JobSpec struct {
	// Model selects exactly one model source.
	Model ModelSpec `json:"model"`
	// Priority is the scheduling class: "batch" (default) or
	// "interactive" (overtakes queued batch work at task granularity).
	Priority string `json:"priority,omitempty"`
	// Weight is the weighted-round-robin share against other jobs of the
	// same class. Default 1, capped at 1000.
	Weight int `json:"weight,omitempty"`
	// Char tunes the characterization. Optional.
	Char *CharSpec `json:"char,omitempty"`
	// Enforce, when present, turns the job into a passivity-enforcement
	// run (the characterization options still come from Char).
	Enforce *EnforceSpec `json:"enforce,omitempty"`
}

// ModelSpec names the model: exactly one of its fields must be set.
type ModelSpec struct {
	// Generate builds a synthetic macromodel (statespace.Generate).
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Case references a Table-I benchmark case, optionally shrunk.
	Case *CaseRef `json:"case,omitempty"`
	// PoleResidue supplies an explicit pole–residue macromodel.
	PoleResidue *PoleResidueSpec `json:"pole_residue,omitempty"`
}

// GenerateSpec mirrors the statespace.Generate knobs exposed over the
// wire. Seed is required (the same seed always yields the same model).
type GenerateSpec struct {
	Seed           int64   `json:"seed"`
	Ports          int     `json:"ports"`
	Order          int     `json:"order"`
	TargetPeak     float64 `json:"target_peak,omitempty"`
	GridPoints     int     `json:"grid_points,omitempty"`
	Reciprocal     bool    `json:"reciprocal,omitempty"`
	PortsPerColumn int     `json:"ports_per_column,omitempty"`
}

// CaseRef selects a Table-I case by ID; Order and Ports, when positive,
// shrink the case (the e2e-test idiom: same seed and calibrated peak on a
// smaller realization).
type CaseRef struct {
	ID    int `json:"id"`
	Order int `json:"order,omitempty"`
	Ports int `json:"ports,omitempty"`
}

// PoleResidueSpec is an explicit rational macromodel: D is the p×p direct
// coupling, Poles[k] the column-k poles as [re, im] pairs (complex poles
// with im > 0 only, conjugates implied), Residues[k] the column-k residue
// matrix as p rows × len(Poles[k]) entries of [re, im].
type PoleResidueSpec struct {
	D        [][]float64      `json:"d"`
	Poles    [][][2]float64   `json:"poles"`
	Residues [][][][2]float64 `json:"residues"`
}

// CharSpec tunes the characterization.
type CharSpec struct {
	Seed        int64   `json:"seed,omitempty"`
	Threads     int     `json:"threads,omitempty"`
	ProbePoints int     `json:"probe_points,omitempty"`
	OmegaMax    float64 `json:"omega_max,omitempty"`
	MaxShifts   int     `json:"max_shifts,omitempty"`
}

// EnforceSpec tunes the enforcement loop.
type EnforceSpec struct {
	MaxIters int     `json:"max_iters,omitempty"`
	Margin   float64 `json:"margin,omitempty"`
}

// DecodeJobSpec strictly decodes one JobSpec from r and validates it:
// unknown fields, trailing garbage, out-of-cap sizes, and non-finite
// floats are all rejected with a descriptive error and never reach the
// solver. It never panics on any input (FuzzJobSpec asserts this).
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decode job spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("decode job spec: trailing data after JSON document")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks structural and range constraints without building the
// model (BuildModel revalidates what only the realization code can).
func (s *JobSpec) Validate() error {
	set := 0
	if s.Model.Generate != nil {
		set++
		if err := s.Model.Generate.validate(); err != nil {
			return err
		}
	}
	if s.Model.Case != nil {
		set++
		if err := s.Model.Case.validate(); err != nil {
			return err
		}
	}
	if s.Model.PoleResidue != nil {
		set++
		if err := s.Model.PoleResidue.validate(); err != nil {
			return err
		}
	}
	if set != 1 {
		return fmt.Errorf("model: exactly one of generate/case/pole_residue must be set, got %d", set)
	}
	switch s.Priority {
	case "", "batch", "interactive":
	default:
		return fmt.Errorf("priority: want \"batch\" or \"interactive\", got %q", s.Priority)
	}
	if s.Weight < 0 || s.Weight > maxSpecWeight {
		return fmt.Errorf("weight: want 0 ≤ w ≤ %d, got %d", maxSpecWeight, s.Weight)
	}
	if s.Char != nil {
		if err := s.Char.validate(); err != nil {
			return err
		}
	}
	if s.Enforce != nil {
		if err := s.Enforce.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (g *GenerateSpec) validate() error {
	switch {
	case g.Ports < 1 || g.Ports > maxSpecPorts:
		return fmt.Errorf("generate.ports: want 1 ≤ p ≤ %d, got %d", maxSpecPorts, g.Ports)
	case g.Order < 1 || g.Order > maxSpecOrder:
		return fmt.Errorf("generate.order: want 1 ≤ n ≤ %d, got %d", maxSpecOrder, g.Order)
	case !finite(g.TargetPeak) || g.TargetPeak < 0 || g.TargetPeak > 10:
		return fmt.Errorf("generate.target_peak: want finite 0 ≤ peak ≤ 10, got %g", g.TargetPeak)
	case g.GridPoints < 0 || g.GridPoints > maxSpecGridPoints:
		return fmt.Errorf("generate.grid_points: want 0 ≤ g ≤ %d, got %d", maxSpecGridPoints, g.GridPoints)
	case g.PortsPerColumn < 0 || g.PortsPerColumn > maxSpecPorts:
		return fmt.Errorf("generate.ports_per_column: want 0 ≤ k ≤ %d, got %d", maxSpecPorts, g.PortsPerColumn)
	}
	return nil
}

func (c *CaseRef) validate() error {
	if _, err := statespace.FindCase(c.ID); err != nil {
		return fmt.Errorf("case.id: %w", err)
	}
	if c.Order < 0 || c.Order > maxSpecOrder {
		return fmt.Errorf("case.order: want 0 ≤ n ≤ %d, got %d", maxSpecOrder, c.Order)
	}
	if c.Ports < 0 || c.Ports > maxSpecPorts {
		return fmt.Errorf("case.ports: want 0 ≤ p ≤ %d, got %d", maxSpecPorts, c.Ports)
	}
	return nil
}

func (pr *PoleResidueSpec) validate() error {
	p := len(pr.D)
	if p < 1 || p > maxSpecPorts {
		return fmt.Errorf("pole_residue.d: want 1 ≤ p ≤ %d rows, got %d", maxSpecPorts, p)
	}
	for i, row := range pr.D {
		if len(row) != p {
			return fmt.Errorf("pole_residue.d: row %d has %d entries, want %d", i, len(row), p)
		}
		for j, v := range row {
			if !finite(v) {
				return fmt.Errorf("pole_residue.d[%d][%d]: non-finite %g", i, j, v)
			}
		}
	}
	if len(pr.Poles) != p || len(pr.Residues) != p {
		return fmt.Errorf("pole_residue: want %d columns of poles and residues, got %d/%d",
			p, len(pr.Poles), len(pr.Residues))
	}
	order := 0
	for k := range pr.Poles {
		np := len(pr.Poles[k])
		if np == 0 {
			return fmt.Errorf("pole_residue.poles[%d]: empty column", k)
		}
		for i, pl := range pr.Poles[k] {
			if !finite(pl[0]) || !finite(pl[1]) {
				return fmt.Errorf("pole_residue.poles[%d][%d]: non-finite", k, i)
			}
			if pl[1] == 0 {
				order++
			} else {
				order += 2
			}
		}
		if len(pr.Residues[k]) != p {
			return fmt.Errorf("pole_residue.residues[%d]: want %d rows, got %d", k, p, len(pr.Residues[k]))
		}
		for r, row := range pr.Residues[k] {
			if len(row) != np {
				return fmt.Errorf("pole_residue.residues[%d][%d]: want %d entries, got %d", k, r, np, len(row))
			}
			for i, v := range row {
				if !finite(v[0]) || !finite(v[1]) {
					return fmt.Errorf("pole_residue.residues[%d][%d][%d]: non-finite", k, r, i)
				}
			}
		}
	}
	if order > maxSpecOrder {
		return fmt.Errorf("pole_residue: total order %d exceeds cap %d", order, maxSpecOrder)
	}
	return nil
}

func (c *CharSpec) validate() error {
	switch {
	case c.Threads < 0 || c.Threads > 1024:
		return fmt.Errorf("char.threads: want 0 ≤ t ≤ 1024, got %d", c.Threads)
	case c.ProbePoints < 0 || c.ProbePoints > maxSpecProbePoints:
		return fmt.Errorf("char.probe_points: want 0 ≤ n ≤ %d, got %d", maxSpecProbePoints, c.ProbePoints)
	case !finite(c.OmegaMax) || c.OmegaMax < 0:
		return fmt.Errorf("char.omega_max: want finite ω ≥ 0, got %g", c.OmegaMax)
	case c.MaxShifts < 0 || c.MaxShifts > maxSpecMaxShifts:
		return fmt.Errorf("char.max_shifts: want 0 ≤ n ≤ %d, got %d", maxSpecMaxShifts, c.MaxShifts)
	}
	return nil
}

func (e *EnforceSpec) validate() error {
	switch {
	case e.MaxIters < 0 || e.MaxIters > maxSpecMaxIters:
		return fmt.Errorf("enforce.max_iters: want 0 ≤ n ≤ %d, got %d", maxSpecMaxIters, e.MaxIters)
	case !finite(e.Margin) || e.Margin < 0 || e.Margin >= 1:
		return fmt.Errorf("enforce.margin: want finite 0 ≤ m < 1, got %g", e.Margin)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// BuildModel realizes the spec's model. Validate must have passed.
func (s *JobSpec) BuildModel() (*statespace.Model, error) {
	switch {
	case s.Model.Generate != nil:
		g := s.Model.Generate
		return statespace.Generate(g.Seed, statespace.GenOptions{
			Ports:          g.Ports,
			Order:          g.Order,
			TargetPeak:     g.TargetPeak,
			GridPoints:     g.GridPoints,
			Reciprocal:     g.Reciprocal,
			PortsPerColumn: g.PortsPerColumn,
		})
	case s.Model.Case != nil:
		spec, err := statespace.FindCase(s.Model.Case.ID)
		if err != nil {
			return nil, err
		}
		if s.Model.Case.Order > 0 {
			spec.N = s.Model.Case.Order
		}
		if s.Model.Case.Ports > 0 {
			spec.P = s.Model.Case.Ports
		}
		return statespace.Generate(spec.Seed, statespace.GenOptions{
			Ports:      spec.P,
			Order:      spec.N,
			TargetPeak: spec.TargetPeak,
			GridPoints: 40,
		})
	case s.Model.PoleResidue != nil:
		return s.Model.PoleResidue.build()
	}
	return nil, errors.New("no model source set")
}

func (pr *PoleResidueSpec) build() (*statespace.Model, error) {
	p := len(pr.D)
	d := mat.NewDense(p, p)
	for i, row := range pr.D {
		for j, v := range row {
			d.Set(i, j, v)
		}
	}
	poles := make([][]complex128, p)
	residues := make([]*mat.CDense, p)
	for k := range pr.Poles {
		np := len(pr.Poles[k])
		poles[k] = make([]complex128, np)
		for i, pl := range pr.Poles[k] {
			poles[k][i] = complex(pl[0], pl[1])
		}
		rm := mat.NewCDense(p, np)
		for r, row := range pr.Residues[k] {
			for i, v := range row {
				rm.Set(r, i, complex(v[0], v[1]))
			}
		}
		residues[k] = rm
	}
	return statespace.FromPoleResidue(d, poles, residues)
}

// CharOptions maps the spec onto the characterization options the fleet
// request carries.
func (s *JobSpec) CharOptions() passivity.Options {
	var o passivity.Options
	if s.Char != nil {
		o.Core.Seed = s.Char.Seed
		o.Core.Threads = s.Char.Threads
		o.Core.OmegaMax = s.Char.OmegaMax
		o.Core.MaxShifts = s.Char.MaxShifts
		o.ProbePoints = s.Char.ProbePoints
	}
	return o
}

// EnforceOptions maps the spec onto enforcement options, or nil for a
// plain characterization job.
func (s *JobSpec) EnforceOptions() *passivity.EnforceOptions {
	if s.Enforce == nil {
		return nil
	}
	return &passivity.EnforceOptions{
		Char:     s.CharOptions(),
		MaxIters: s.Enforce.MaxIters,
		Margin:   s.Enforce.Margin,
	}
}

// PriorityClass maps the spec's priority string onto the scheduler class.
func (s *JobSpec) PriorityClass() core.PriorityClass {
	if s.Priority == "interactive" {
		return core.PriorityInteractive
	}
	return core.PriorityBatch
}
