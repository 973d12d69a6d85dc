// Package mip is a 0-1 mixed-integer programming solver built on the
// internal/simplex LP engine: an lp_solve replacement for the paper's
// integer-programming-based scheduler. It offers a small model-builder
// API (variables, linear rows, min/max objective), LP-relaxation-based
// branch and bound with depth-first diving, most-fractional branching,
// warm-start incumbents, and a node limit with gap reporting.
package mip

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/obs"
	"repro/internal/simplex"
)

// Sense is a row's comparison operator.
type Sense int8

// Row senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

// Term is one coefficient of a row or the objective.
type Term struct {
	Var  int
	Coef float64
}

// Model is a MIP under construction.
type Model struct {
	maximize bool
	obj      []float64
	lower    []float64
	upper    []float64
	integer  []bool
	names    []string

	rows     [][]Term
	senses   []Sense
	rhs      []float64
	rowNames []string
}

// NewModel returns an empty minimization model.
func NewModel() *Model { return &Model{} }

// SetMaximize flips the objective direction to maximization.
func (m *Model) SetMaximize() { m.maximize = true }

// AddVar appends a variable and returns its index.
func (m *Model) AddVar(name string, lb, ub, objCoef float64, integer bool) int {
	m.names = append(m.names, name)
	m.lower = append(m.lower, lb)
	m.upper = append(m.upper, ub)
	m.obj = append(m.obj, objCoef)
	m.integer = append(m.integer, integer)
	return len(m.obj) - 1
}

// AddBinary appends a 0-1 variable.
func (m *Model) AddBinary(name string, objCoef float64) int {
	return m.AddVar(name, 0, 1, objCoef, true)
}

// AddRow appends a linear constraint Σ terms (sense) rhs.
func (m *Model) AddRow(name string, terms []Term, sense Sense, rhs float64) {
	t := make([]Term, len(terms))
	copy(t, terms)
	m.rows = append(m.rows, t)
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	m.rowNames = append(m.rowNames, name)
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.obj) }

// Status describes the solve outcome.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal within tolerances.
	Optimal Status = iota
	// Feasible: a feasible incumbent exists but optimality was not
	// proven (limit hit).
	Feasible
	// Infeasible: no feasible solution exists.
	Infeasible
	// NoSolution: limits hit before any feasible solution was found.
	NoSolution
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Options bounds the search. The solution is a function of the model
// and these options alone: no wall-clock budget exists, so the same
// solve returns the same bits on any machine at any load.
type Options struct {
	// NodeLimit caps branch-and-bound nodes per portfolio worker
	// (0 = default 100000). It is the solver's only budget.
	NodeLimit int
	// Workers is the number of concurrent branch-and-bound dives the
	// portfolio runs (≤ 0 = runtime.GOMAXPROCS(0)). Worker 0 follows
	// the canonical most-fractional dive; the others use
	// deterministically jittered branching orders, all exchanging
	// their incumbent bounds at epoch barriers, so within the same
	// budget the portfolio's incumbent is never worse than a
	// one-worker solve's. The answer depends on Workers (the number
	// of dives), not on how the goroutines are scheduled.
	Workers int
	// WarmStart, when non-nil, is a feasible assignment used as the
	// initial incumbent (checked; ignored if infeasible).
	WarmStart []float64
	// Trace, when non-nil, receives per-worker dive spans and
	// incumbent-improvement instants. Observability only: the search
	// never reads it for decisions.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.NodeLimit == 0 {
		o.NodeLimit = 100000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Solution reports the best-known answer.
type Solution struct {
	Status Status
	// Obj is the incumbent objective in the model's own direction.
	Obj float64
	X   []float64
	// Bound is the best proven bound on the optimum (model direction).
	Bound float64
	// Gap is |Obj−Bound| / max(1,|Obj|); zero when proven optimal.
	Gap   float64
	Nodes int
}

// internalObj converts a model-direction objective to the internal
// minimization direction.
func (s *search) internalObj(obj float64) float64 {
	if s.m.maximize {
		return -obj
	}
	return obj
}

// CheckFeasible verifies an assignment against bounds, integrality and
// rows; it returns the model-direction objective and validity.
func (m *Model) CheckFeasible(x []float64, tol float64) (float64, bool) {
	if len(x) != len(m.obj) {
		return 0, false
	}
	for j := range x {
		if x[j] < m.lower[j]-tol || x[j] > m.upper[j]+tol {
			return 0, false
		}
		if m.integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return 0, false
		}
	}
	for r := range m.rows {
		var lhs float64
		for _, t := range m.rows[r] {
			lhs += t.Coef * x[t.Var]
		}
		switch m.senses[r] {
		case LE:
			if lhs > m.rhs[r]+tol*(1+math.Abs(m.rhs[r])) {
				return 0, false
			}
		case GE:
			if lhs < m.rhs[r]-tol*(1+math.Abs(m.rhs[r])) {
				return 0, false
			}
		case EQ:
			if math.Abs(lhs-m.rhs[r]) > tol*(1+math.Abs(m.rhs[r])) {
				return 0, false
			}
		}
	}
	var obj float64
	for j := range x {
		obj += m.obj[j] * x[j]
	}
	return obj, true
}

// toLP converts the model to equality standard form, appending one
// slack column per inequality row. Objective is always minimization
// internally.
func (m *Model) toLP() (*simplex.LP, error) {
	n := len(m.obj)
	lp := &simplex.LP{NumRows: len(m.rows)}
	lp.Cost = make([]float64, n)
	for j := range m.obj {
		if m.maximize {
			lp.Cost[j] = -m.obj[j]
		} else {
			lp.Cost[j] = m.obj[j]
		}
	}
	lp.Lower = append([]float64(nil), m.lower...)
	lp.Upper = append([]float64(nil), m.upper...)
	lp.B = append([]float64(nil), m.rhs...)
	lp.Cols = make([][]simplex.Entry, n)
	for r, row := range m.rows {
		for _, t := range row {
			if t.Var < 0 || t.Var >= n {
				return nil, fmt.Errorf("mip: row %d references unknown variable %d", r, t.Var)
			}
			if t.Coef == 0 {
				continue
			}
			lp.Cols[t.Var] = append(lp.Cols[t.Var], simplex.Entry{Row: int32(r), Val: t.Coef})
		}
	}
	// Slack columns.
	for r := range m.rows {
		switch m.senses[r] {
		case LE:
			lp.Cost = append(lp.Cost, 0)
			lp.Lower = append(lp.Lower, 0)
			lp.Upper = append(lp.Upper, math.Inf(1))
			lp.Cols = append(lp.Cols, []simplex.Entry{{Row: int32(r), Val: 1}})
		case GE:
			lp.Cost = append(lp.Cost, 0)
			lp.Lower = append(lp.Lower, 0)
			lp.Upper = append(lp.Upper, math.Inf(1))
			lp.Cols = append(lp.Cols, []simplex.Entry{{Row: int32(r), Val: -1}})
		}
	}
	return lp, nil
}
