// Package simplex implements a sparse revised simplex solver for
// linear programs with bounded variables:
//
//	min  cᵀx
//	s.t. Ax = b,  l ≤ x ≤ u   (entries of l may be -Inf, of u +Inf)
//
// It is the linear-programming engine underneath internal/mip, which
// together replace the paper's external lp_solve dependency. The
// implementation is a textbook two-phase bounded-variable revised
// simplex with a product-form-of-the-inverse (eta file) basis
// representation, periodic refactorization, Dantzig pricing with a
// Bland anti-cycling fallback, and a two-sided ratio test with bound
// flips.
//
// Inequality rows are handled by the caller (internal/mip) by adding
// slack columns; this package deals only with the equality standard
// form above.
package simplex

import (
	"fmt"
	"math"
)

// Entry is one nonzero of a sparse column.
type Entry struct {
	Row int32
	Val float64
}

// LP is a linear program in equality standard form. All slices are
// indexed by column except B, indexed by row.
type LP struct {
	NumRows int
	Cost    []float64
	Lower   []float64
	Upper   []float64
	B       []float64
	Cols    [][]Entry
}

// NumCols returns the number of structural columns.
func (lp *LP) NumCols() int { return len(lp.Cols) }

// Validate checks structural consistency.
func (lp *LP) Validate() error {
	n := lp.NumCols()
	if len(lp.Cost) != n || len(lp.Lower) != n || len(lp.Upper) != n {
		return fmt.Errorf("simplex: cost/bound slices disagree with %d columns", n)
	}
	if len(lp.B) != lp.NumRows {
		return fmt.Errorf("simplex: rhs has %d entries for %d rows", len(lp.B), lp.NumRows)
	}
	for j, col := range lp.Cols {
		if lp.Lower[j] > lp.Upper[j] {
			return fmt.Errorf("simplex: column %d has crossed bounds [%g,%g]", j, lp.Lower[j], lp.Upper[j])
		}
		for _, e := range col {
			if int(e.Row) < 0 || int(e.Row) >= lp.NumRows {
				return fmt.Errorf("simplex: column %d references row %d of %d", j, e.Row, lp.NumRows)
			}
			if e.Val == 0 || math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
				return fmt.Errorf("simplex: column %d has invalid coefficient %g", j, e.Val)
			}
		}
	}
	return nil
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	Singular
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Singular:
		return "singular-basis"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solver constants. Every caller runs with these; the iteration cap
// depends only on the row count (maxIters).
const (
	// refactorEvery rebuilds the eta file after this many pivots.
	refactorEvery = 120
	// tol is the feasibility/optimality tolerance.
	tol = 1e-7
	// maxPivotWork is the pivots × rows^1.5 budget of one solve.
	maxPivotWork = 2.7e9
)

// maxIters caps the total simplex iterations of one solve, phase 1
// included; a solve that reaches it returns IterLimit. The cap is what
// bounds the cost of one branch-and-bound node: a paper-scale
// high-overlap allocation LP (5332 rows) is still in phase 1 after
// 50000 pivots. Below about 1100 rows the cap is 20000 + 50·rows, far
// more than any LP here needs. Above that it is maxPivotWork/rows^1.5:
// one pivot's cost grows about as rows^1.5 (about 3 ms at 5332 rows,
// 30 ms at 28069 and 100 ms at 53557 on a 2-vCPU Xeon VM), so a capped
// solve costs roughly the same, 20–30 s on that host, at any size.
func maxIters(rows int) int {
	r := max(rows, 1)
	// math.Sqrt is correctly rounded, so the cap is the same on every
	// platform.
	return min(20000+50*r, int(maxPivotWork/(float64(r)*math.Sqrt(float64(r)))))
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// Obj is the objective value of X (meaningful for Optimal and
	// IterLimit — for the latter it is the best feasible point reached
	// if Phase 1 finished, else NaN).
	Obj float64
	// X holds the structural variable values.
	X []float64
	// Iters counts simplex iterations performed.
	Iters int
}

// Solve optimizes the LP.
func Solve(lp *LP) (*Result, error) {
	return SolveWS(new(Workspace), lp)
}

// Workspace caches every per-solve allocation of the solver — the
// bound/cost/column shadow arrays, basis bookkeeping, dense scratch
// vectors and the solution buffer — so repeated solves (branch-and-
// bound explores thousands of nodes against the same matrix) reuse
// memory instead of churning the heap. A Workspace may be reused
// across LPs of any size; it grows monotonically. It is not safe for
// concurrent use: give each solving goroutine its own.
type Workspace struct {
	cost, lower, upper []float64
	cols               [][]Entry
	state              []varState
	basic, inRow       []int32
	xB, w, y           []float64
	phase1             []float64
	x                  []float64
}

// SolveWS optimizes the LP reusing ws's buffers. Unlike Solve, the
// returned Result.X aliases workspace memory: it is valid only until
// the next SolveWS call with the same workspace and must be copied by
// callers that keep it.
func SolveWS(ws *Workspace, lp *LP) (*Result, error) {
	if err := lp.Validate(); err != nil {
		return nil, err
	}
	s := newSolver(ws, lp)
	return s.solve(), nil
}

func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growI(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// varState tracks where a column currently lives.
type varState int8

const (
	atLower varState = iota
	atUpper
	inBasis
)

// eta is one elementary transformation of the product-form inverse:
// the basis changed by bringing a column whose FTRANed form is w with
// pivot row p.
type eta struct {
	pivot int32
	col   []Entry // includes the pivot entry
}

type solver struct {
	lp *LP

	m, n  int // rows, total columns incl. artificials
	cost  []float64
	lower []float64
	upper []float64
	cols  [][]Entry

	state []varState
	basic []int32   // basic[r] = column basic in row r
	inRow []int32   // inRow[j] = row of basic column j, -1 otherwise
	xB    []float64 // values of basic columns by row

	etas       []eta
	iters      int
	phase      int
	nArt       int
	stallCount int
	priceStart int

	// scratch
	w  []float64
	y  []float64
	wN []int32 // nonzero pattern scratch

	// ws owns every slice above plus the phase-1 cost and solution
	// buffers; the solver itself is rebuilt per solve.
	ws *Workspace
}

func newSolver(ws *Workspace, lp *LP) *solver {
	m := lp.NumRows
	n := lp.NumCols()
	s := &solver{lp: lp, m: m, ws: ws}
	total := n + m // reserve artificials
	// Every slice comes from the workspace; entries a previous solve
	// left behind are either overwritten below (structural columns),
	// by start() (artificial columns, basis arrays, xB), or
	// immediately before each use (w, y) — only inRow needs an
	// explicit full reset.
	ws.cost = growF(ws.cost, total)
	ws.lower = growF(ws.lower, total)
	ws.upper = growF(ws.upper, total)
	if cap(ws.cols) < total {
		ws.cols = make([][]Entry, total)
	}
	ws.cols = ws.cols[:total]
	s.cost = ws.cost
	s.lower = ws.lower
	s.upper = ws.upper
	s.cols = ws.cols
	copy(s.cost, lp.Cost)
	copy(s.lower, lp.Lower)
	copy(s.upper, lp.Upper)
	copy(s.cols, lp.Cols)
	s.n = n
	if cap(ws.state) < total {
		ws.state = make([]varState, total)
	}
	ws.state = ws.state[:total]
	s.state = ws.state
	ws.basic = growI(ws.basic, m)
	ws.inRow = growI(ws.inRow, total)
	s.basic = ws.basic
	s.inRow = ws.inRow
	for j := range s.inRow {
		s.inRow[j] = -1
	}
	ws.xB = growF(ws.xB, m)
	ws.w = growF(ws.w, m)
	ws.y = growF(ws.y, m)
	s.xB = ws.xB
	s.w = ws.w
	s.y = ws.y
	return s
}

// start initializes an all-artificial basis: every structural column
// rests at its finite bound nearest zero (free columns at 0), and an
// artificial per row absorbs the residual.
func (s *solver) start() {
	for j := 0; j < s.n; j++ {
		switch {
		case s.lower[j] > math.Inf(-1):
			s.state[j] = atLower
		case s.upper[j] < math.Inf(1):
			s.state[j] = atUpper
		default:
			// Free variable: encode "at value 0" by temporarily
			// treating it as at a pseudo-lower bound of 0; the bound
			// arrays keep -Inf so the ratio test never flips it.
			s.state[j] = atLower
		}
	}
	resid := make([]float64, s.m)
	copy(resid, s.lp.B)
	for j := 0; j < s.n; j++ {
		v := s.valueAtBound(j)
		if v == 0 {
			continue
		}
		for _, e := range s.cols[j] {
			resid[e.Row] -= e.Val * v
		}
	}
	for r := 0; r < s.m; r++ {
		// Artificial columns always carry coefficient +1 so the
		// initial basis is exactly the identity (the empty eta file);
		// a negative residual is absorbed by letting the artificial
		// range below zero, with a signed phase-1 cost so that
		// minimizing still drives |a| to 0.
		j := s.n + r
		s.cols[j] = []Entry{{Row: int32(r), Val: 1}}
		if resid[r] >= 0 {
			s.lower[j] = 0
			s.upper[j] = math.Inf(1)
		} else {
			s.lower[j] = math.Inf(-1)
			s.upper[j] = 0
		}
		s.cost[j] = 0
		s.state[j] = inBasis
		s.basic[r] = int32(j)
		s.inRow[j] = int32(r)
		s.xB[r] = resid[r]
	}
	s.nArt = s.m
	s.n += s.m
}

// valueAtBound returns the current value of nonbasic column j.
func (s *solver) valueAtBound(j int) float64 {
	switch s.state[j] {
	case atLower:
		if math.IsInf(s.lower[j], -1) {
			return 0
		}
		return s.lower[j]
	case atUpper:
		if math.IsInf(s.upper[j], 1) {
			return 0
		}
		return s.upper[j]
	}
	panic("simplex: valueAtBound on basic column")
}

func (s *solver) solve() *Result {
	s.start()
	// Phase 1: minimize the sum of artificial magnitudes (+a for
	// artificials bounded below by 0, −a for those bounded above by 0).
	// The buffer is workspace-owned: zero the structural prefix a
	// previous solve may have dirtied (the artificial tail is fully
	// written just below).
	s.ws.phase1 = growF(s.ws.phase1, s.n)
	phase1Cost := s.ws.phase1
	for j := 0; j < s.lp.NumCols(); j++ {
		phase1Cost[j] = 0
	}
	for r := 0; r < s.m; r++ {
		j := s.lp.NumCols() + r
		if math.IsInf(s.lower[j], -1) {
			phase1Cost[j] = -1
		} else {
			phase1Cost[j] = 1
		}
	}
	saved := s.cost
	s.cost = phase1Cost
	s.phase = 1
	st := s.iterate()
	if st == IterLimit {
		return &Result{Status: IterLimit, Obj: math.NaN(), X: s.extractX(), Iters: s.iters}
	}
	if st == Singular {
		return &Result{Status: Singular, Obj: math.NaN(), Iters: s.iters}
	}
	if s.objective() > tol*float64(1+s.m) {
		return &Result{Status: Infeasible, Obj: math.NaN(), Iters: s.iters}
	}
	// Pin artificials to zero and restore the real objective.
	for r := 0; r < s.m; r++ {
		j := s.lp.NumCols() + r
		s.lower[j] = 0
		s.upper[j] = 0
		if s.state[j] == atUpper {
			s.state[j] = atLower // both bounds are 0 now
		}
	}
	s.cost = saved
	// saved has length total; it was allocated that long in newSolver.
	s.phase = 2
	st = s.iterate()
	res := &Result{Status: st, Iters: s.iters, X: s.extractX()}
	res.Obj = s.structuralObjective()
	if st == Unbounded {
		res.Obj = math.Inf(-1)
	}
	return res
}

// objective returns cᵀx under the current (possibly phase-1) cost.
func (s *solver) objective() float64 {
	var obj float64
	for j := 0; j < s.n; j++ {
		if s.state[j] != inBasis {
			obj += s.cost[j] * s.valueAtBound(j)
		}
	}
	for r := 0; r < s.m; r++ {
		obj += s.cost[s.basic[r]] * s.xB[r]
	}
	return obj
}

// structuralObjective evaluates the original cost on the structural
// columns only.
func (s *solver) structuralObjective() float64 {
	x := s.extractX()
	var obj float64
	for j := range x {
		obj += s.lp.Cost[j] * x[j]
	}
	return obj
}

func (s *solver) extractX() []float64 {
	// Workspace-owned: every structural entry is written below (a
	// column is either nonbasic — first loop — or basic — second), so
	// stale contents never leak.
	s.ws.x = growF(s.ws.x, s.lp.NumCols())
	x := s.ws.x
	for j := range x {
		if s.state[j] != inBasis {
			x[j] = s.valueAtBound(j)
		}
	}
	for r := 0; r < s.m; r++ {
		if int(s.basic[r]) < len(x) {
			x[s.basic[r]] = s.xB[r]
		}
	}
	return x
}
