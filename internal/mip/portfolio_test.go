package mip

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomKnapsack builds a 0-1 knapsack with values/weights drawn from
// the given seed. Random float coefficients make objective ties
// measure-zero, so the optimum vector is unique.
func randomKnapsack(seed int64, items int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	m.SetMaximize()
	var terms []Term
	var total float64
	for j := 0; j < items; j++ {
		m.AddBinary("x", 1+rng.Float64()*9)
		w := 1 + rng.Float64()*5
		total += w
		terms = append(terms, Term{Var: j, Coef: w})
	}
	m.AddRow("cap", terms, LE, total*0.4)
	return m
}

// randomAssignment builds a makespan-minimization assignment model
// (tasks × nodes binaries plus a continuous makespan variable).
func randomAssignment(seed int64, tasks, nodes int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	z := m.AddVar("z", 0, math.Inf(1), 1, false)
	x := make([][]int, tasks)
	loads := make([][]float64, tasks)
	for k := range x {
		x[k] = make([]int, nodes)
		loads[k] = make([]float64, nodes)
		var row []Term
		for i := range x[k] {
			x[k][i] = m.AddBinary("x", 0)
			loads[k][i] = 1 + rng.Float64()*4
			row = append(row, Term{Var: x[k][i], Coef: 1})
		}
		m.AddRow("assign", row, EQ, 1)
	}
	for i := 0; i < nodes; i++ {
		terms := []Term{{Var: z, Coef: -1}}
		for k := 0; k < tasks; k++ {
			terms = append(terms, Term{Var: x[k][i], Coef: loads[k][i]})
		}
		m.AddRow("load", terms, LE, 0)
	}
	return m
}

// TestPortfolioMatchesSequentialOptimum proves a four-worker portfolio
// reaches the same optimum as a one-worker solve (worker 0's dive
// alone) when both run to completion, on a fixed instance set.
func TestPortfolioMatchesSequentialOptimum(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := randomKnapsack(seed, 24)
		seq, err := m.Solve(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := m.Solve(Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Status != Optimal || par.Status != Optimal {
			t.Fatalf("seed %d: status seq=%v par=%v", seed, seq.Status, par.Status)
		}
		if math.Abs(seq.Obj-par.Obj) > 1e-9 {
			t.Fatalf("seed %d: obj seq=%v par=%v", seed, seq.Obj, par.Obj)
		}
		for j := range seq.X {
			if math.Round(seq.X[j]) != math.Round(par.X[j]) {
				t.Fatalf("seed %d: solutions differ at var %d", seed, j)
			}
		}
	}
}

// TestPortfolioNeverWorseWithinBudget proves the parallel solve's
// incumbent is never worse than the one-worker one under the same
// deterministic node budget: worker 0 runs the one-worker dive
// exactly, so the merged incumbent can only improve on it.
func TestPortfolioNeverWorseWithinBudget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, build := range []func() *Model{
			func() *Model { return randomKnapsack(seed*11, 40) },
			func() *Model { return randomAssignment(seed*13, 12, 4) },
		} {
			m := build()
			budget := Options{NodeLimit: 400}
			seq, err := m.Solve(Options{NodeLimit: budget.NodeLimit, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := m.Solve(Options{NodeLimit: budget.NodeLimit, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Status == NoSolution {
				continue // nothing to compare against
			}
			if par.Status == NoSolution {
				t.Fatalf("seed %d: portfolio found nothing where one worker found %v", seed, seq.Obj)
			}
			// Internal direction is minimization for these models except
			// the maximize knapsack; compare in model direction.
			worse := par.Obj < seq.Obj-1e-9
			if !m.maximize {
				worse = par.Obj > seq.Obj+1e-9
			}
			if worse {
				t.Errorf("seed %d: portfolio incumbent %v worse than one worker's %v", seed, par.Obj, seq.Obj)
			}
		}
	}
}

// TestPortfolioDeterministic reruns the same four-worker solve and
// demands bit-identical results: status, node count, and the float
// bits of the objective and every X. The merge is by worker index and
// bounds are exchanged only at epoch barriers, so neither which
// goroutine finished first nor when a worker published an incumbent
// can change the answer. The node-limited cases stop mid-search, where
// a bound read mid-epoch would change the node count and incumbent.
func TestPortfolioDeterministic(t *testing.T) {
	type tc struct {
		name    string
		m       *Model
		opt     Options
		limited bool
	}
	var cases []tc
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, tc{fmt.Sprintf("assign-%d-10x3", seed*7), randomAssignment(seed*7, 10, 3), Options{Workers: 4}, false})
	}
	for seed := int64(1); seed <= 2; seed++ {
		cases = append(cases,
			tc{fmt.Sprintf("knapsack-%d-40-n400", seed*11), randomKnapsack(seed*11, 40), Options{Workers: 4, NodeLimit: 400}, true},
			tc{fmt.Sprintf("assign-%d-12x4-n400", seed*13), randomAssignment(seed*13, 12, 4), Options{Workers: 4, NodeLimit: 400}, true})
	}
	for _, c := range cases {
		first, err := c.m.Solve(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.limited && first.Status != Feasible {
			t.Fatalf("%s: status %v, want feasible (node limit hit)", c.name, first.Status)
		}
		again, err := c.m.Solve(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := goldenLine(c.name, again), goldenLine(c.name, first); got != want {
			t.Fatalf("runs differ:\n got %s\nwant %s", got, want)
		}
	}
}

// TestPortfolioWarmStartRespected checks every worker is seeded with
// the warm incumbent (a budget of zero nodes must still return it).
func TestPortfolioWarmStartRespected(t *testing.T) {
	m := randomKnapsack(3, 20)
	warm := make([]float64, m.NumVars())
	sol, err := m.Solve(Options{Workers: 4, NodeLimit: 1, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == NoSolution {
		t.Fatalf("warm start lost: %v", sol.Status)
	}
	if sol.Obj < -1e-9 {
		t.Fatalf("warm objective %v, want ≥ 0", sol.Obj)
	}
}

// TestNegativeWorkersMeansAllCPUs checks that a negative worker count
// takes the zero value's meaning (one dive per CPU) instead of failing,
// and reaches the one-worker optimum.
func TestNegativeWorkersMeansAllCPUs(t *testing.T) {
	m := randomKnapsack(2, 16)
	one, err := m.Solve(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := m.Solve(Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if one.Status != Optimal || neg.Status != Optimal {
		t.Fatalf("status one=%v neg=%v", one.Status, neg.Status)
	}
	if math.Abs(one.Obj-neg.Obj) > 1e-9 {
		t.Fatalf("obj one=%v neg=%v", one.Obj, neg.Obj)
	}
	if o := (Options{Workers: -1}).withDefaults(); o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers -1 defaults to %d, want GOMAXPROCS %d", o.Workers, runtime.GOMAXPROCS(0))
	}
}
