package mip

import (
	"math"

	"repro/internal/obs"
	"repro/internal/simplex"
)

// intTol is the integrality tolerance: an integer variable whose LP
// value lies within intTol of an integer is not branched on.
const intTol = 1e-6

// search carries the branch-and-bound state. Bounds are mutated in
// place on the shared LP with undo on backtrack (depth-first), keeping
// memory flat.
type search struct {
	m   *Model
	lp  *simplex.LP
	opt Options

	nodes   int
	bestObj float64 // internal (minimization) direction; +Inf = none
	bestX   []float64

	// Portfolio diversification (nil/false on worker 0, which keeps
	// the canonical dive order).
	// jitter perturbs the most-fractional branching score per variable;
	// flipDive explores the away-from-LP rounding first.
	jitter   []float64
	flipDive bool
	// shared is the portfolio-wide incumbent objective as of the last
	// epoch barrier (ex): workers prune against it and publish their
	// bestObj to ex, while bestObj/bestX stay private so the final
	// merge is deterministic.
	shared float64
	ex     *exchange
	// rootBound is the root LP relaxation value (internal direction);
	// -Inf until solved. With depth-first search this is the bound we
	// report (children only tighten it locally).
	rootBound  float64
	rootSolved bool
	hitLimit   bool

	// widx is the worker's index; it names the solver track of the
	// worker's incumbent instants (observability only).
	widx int

	// root is the root LP relaxation's result, shared read-only by
	// every dive of the portfolio.
	root *simplex.Result

	// ws reuses the simplex solver's allocations across the thousands
	// of node relaxations this dive solves. Lazily created; each search
	// (one per portfolio worker) owns its own, so dives never share.
	ws *simplex.Workspace
}

func (s *search) setIncumbent(x []float64, objInternal float64) {
	if objInternal < s.bestObj-1e-12 {
		s.bestObj = objInternal
		s.bestX = append(s.bestX[:0], x[:len(s.m.obj)]...)
		if tr := s.opt.Trace; tr.Enabled() {
			obj := objInternal
			if s.m.maximize {
				obj = -obj
			}
			tr.Instant(obs.SolverTrack(s.widx), "solver", "incumbent",
				obs.A("obj", obj), obs.A("nodes", s.nodes))
		}
	}
}

// pruned reports whether a node with LP relaxation value obj can be
// cut. Against the private incumbent the usual tie-inclusive margin
// applies. Against the portfolio-wide bound the margin is flipped to
// strictly-worse-only: a subtree whose best possible value exactly
// ties another worker's incumbent must still be explored, so a worker
// keeps its canonical solution and the one-worker dive of worker 0 is
// never cut short by a tie. (Symmetric scheduling models tie exactly,
// so this is the common case, not a corner.)
func (s *search) pruned(obj float64) bool {
	if obj >= s.bestObj-1e-9 {
		return true
	}
	return obj >= s.shared+1e-9
}

// run performs DFS branch and bound.
func (s *search) run() {
	s.rootBound = math.Inf(-1)
	s.dfs(0)
}

type fixing struct {
	v     int
	oldLo float64
	oldHi float64
}

// dfs explores the subtree under the current bound state.
func (s *search) dfs(depth int) {
	if s.nodes >= s.opt.NodeLimit {
		s.hitLimit = true
		return
	}
	if s.nodes > 0 && s.nodes%epochNodes == 0 {
		s.shared = s.ex.sync(s.bestObj)
	}
	s.nodes++
	if s.ws == nil {
		s.ws = new(simplex.Workspace)
	}
	// The root relaxation is shared by every dive (Model.Solve solves
	// it once). Below the root, a workspace-backed solve: res.X aliases
	// s.ws and is consumed fully (branch value read, incumbent copied)
	// before the next node's solve or recursion below.
	res := s.root
	if depth > 0 {
		var err error
		res, err = simplex.SolveWS(s.ws, s.lp)
		if err != nil {
			// Structural model errors surface on the root solve in
			// Model.Solve; per-node errors cannot occur (bounds-only
			// changes). Treat defensively as a pruned node.
			s.hitLimit = true
			return
		}
	}
	if depth == 0 {
		s.rootSolved = res.Status == simplex.Optimal
		if s.rootSolved {
			s.rootBound = res.Obj
		}
	}
	switch res.Status {
	case simplex.Infeasible:
		return
	case simplex.Optimal:
		// fall through
	case simplex.Unbounded:
		// A bounded-variable MIP relaxation can only be unbounded via
		// free continuous variables; give up on bounding this subtree.
		s.hitLimit = true
		return
	default: // IterLimit, Singular: no valid bound; keep diving blind
		// only if we have no incumbent yet, otherwise prune to stay
		// within budget.
		if !math.IsInf(s.bestObj, 1) {
			s.hitLimit = true
			return
		}
	}
	if res.Status == simplex.Optimal && s.pruned(res.Obj) {
		return // bound prune
	}
	// Find the most fractional integer variable (portfolio workers
	// perturb the score so their dives take different branch orders).
	branchVar := -1
	worst := 0.0
	for j := 0; j < len(s.m.obj); j++ {
		if !s.m.integer[j] {
			continue
		}
		f := res.X[j] - math.Floor(res.X[j])
		frac := math.Min(f, 1-f)
		if frac <= intTol {
			continue
		}
		score := frac
		if s.jitter != nil {
			score = frac * (0.5 + s.jitter[j])
		}
		if branchVar < 0 || score > worst {
			worst = score
			branchVar = j
		}
	}
	if branchVar < 0 {
		// Integral: candidate incumbent. Round integer vars exactly
		// and re-verify (guards against tolerance drift).
		x := append([]float64(nil), res.X...)
		for j := range x {
			if j < len(s.m.integer) && s.m.integer[j] {
				x[j] = math.Round(x[j])
			}
		}
		if obj, ok := s.m.CheckFeasible(x[:len(s.m.obj)], 1e-6); ok {
			s.setIncumbent(x, s.internalObj(obj))
		}
		return
	}
	// Dive toward the LP value first: explore the rounding of the
	// fractional value before its alternative.
	v := res.X[branchVar]
	first := math.Round(v)
	second := 1 - first
	if first < 0 || first > 1 {
		first, second = math.Floor(v), math.Ceil(v)
	}
	if s.flipDive {
		first, second = second, first
	}
	for _, val := range []float64{first, second} {
		if s.nodes >= s.opt.NodeLimit {
			s.hitLimit = true
			return
		}
		f := fixing{v: branchVar, oldLo: s.lp.Lower[branchVar], oldHi: s.lp.Upper[branchVar]}
		s.lp.Lower[branchVar] = val
		s.lp.Upper[branchVar] = val
		s.dfs(depth + 1)
		s.lp.Lower[branchVar] = f.oldLo
		s.lp.Upper[branchVar] = f.oldHi
	}
}

func (s *search) solution() *Solution {
	sol := &Solution{Nodes: s.nodes}
	toModel := func(v float64) float64 {
		if s.m.maximize {
			return -v
		}
		return v
	}
	haveIncumbent := !math.IsInf(s.bestObj, 1)
	if haveIncumbent {
		sol.Obj = toModel(s.bestObj)
		sol.X = s.bestX
	}
	bound := s.rootBound
	if !s.hitLimit {
		// Search exhausted: the incumbent is optimal (or the model is
		// infeasible).
		if haveIncumbent {
			sol.Status = Optimal
			sol.Bound = sol.Obj
			return sol
		}
		sol.Status = Infeasible
		return sol
	}
	if haveIncumbent {
		sol.Status = Feasible
		if s.rootSolved {
			sol.Bound = toModel(bound)
			sol.Gap = math.Abs(s.bestObj-bound) / math.Max(1, math.Abs(s.bestObj))
			if sol.Gap <= 1e-9 {
				sol.Status = Optimal
			}
		} else {
			sol.Bound = toModel(math.Inf(-1))
			sol.Gap = math.Inf(1)
		}
		return sol
	}
	sol.Status = NoSolution
	return sol
}
