package mip

import (
	"math"
	"math/rand"
	"testing"
)

func TestKnapsack(t *testing.T) {
	// max 60x1+100x2+120x3 s.t. 10x1+20x2+30x3 ≤ 50 → x2=x3=1, 220.
	m := NewModel()
	m.SetMaximize()
	v1 := m.AddBinary("x1", 60)
	v2 := m.AddBinary("x2", 100)
	v3 := m.AddBinary("x3", 120)
	m.AddRow("cap", []Term{{v1, 10}, {v2, 20}, {v3, 30}}, LE, 50)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-220) > 1e-6 {
		t.Fatalf("obj = %v, want 220", sol.Obj)
	}
	if math.Round(sol.X[v1]) != 0 || math.Round(sol.X[v2]) != 1 || math.Round(sol.X[v3]) != 1 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestInfeasibleModel(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddRow("a", []Term{{x, 1}, {y, 1}}, GE, 3) // two binaries can't reach 3
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestEqualityAssignment(t *testing.T) {
	// 3 tasks, 2 nodes, Σ_i x_ki = 1, minimize makespan z with
	// z ≥ load_i. Loads 3,4,5 → optimal z = 6 (5+? no: split {5},{4,3}
	// → 7 vs {5,3},{4} → 8 vs... best is 7). Check exact value.
	loads := []float64{3, 4, 5}
	m := NewModel()
	z := m.AddVar("z", 0, math.Inf(1), 1, false)
	x := make([][]int, 3)
	for k := range x {
		x[k] = make([]int, 2)
		for i := range x[k] {
			x[k][i] = m.AddBinary("x", 0)
		}
		m.AddRow("assign", []Term{{x[k][0], 1}, {x[k][1], 1}}, EQ, 1)
	}
	for i := 0; i < 2; i++ {
		terms := []Term{{z, -1}}
		for k := range x {
			terms = append(terms, Term{x[k][i], loads[k]})
		}
		m.AddRow("load", terms, LE, 0)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Obj-7) > 1e-6 {
		t.Fatalf("obj = %v, want 7", sol.Obj)
	}
}

// bruteForce enumerates all binary assignments of a model whose
// variables are all binary and returns the optimal objective, or NaN
// when infeasible.
func bruteForce(m *Model) float64 {
	n := m.NumVars()
	best := math.NaN()
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = float64((mask >> j) & 1)
		}
		obj, ok := m.CheckFeasible(x, 1e-9)
		if !ok {
			continue
		}
		if math.IsNaN(best) {
			best = obj
			continue
		}
		if m.maximize && obj > best {
			best = obj
		} else if !m.maximize && obj < best {
			best = obj
		}
	}
	return best
}

func TestRandomVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(6) // 4..9 binaries
		m := NewModel()
		if trial%2 == 0 {
			m.SetMaximize()
		}
		for j := 0; j < n; j++ {
			m.AddBinary("x", math.Round(rng.Float64()*20-10))
		}
		rows := 2 + rng.Intn(4)
		for r := 0; r < rows; r++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{j, math.Round(rng.Float64()*10 - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := Sense(rng.Intn(3))
			rhs := math.Round(rng.Float64() * 8)
			if sense == EQ {
				// keep equalities satisfiable more often: rhs from a
				// random point
				lhs := 0.0
				for _, tm := range terms {
					lhs += tm.Coef * float64(rng.Intn(2))
				}
				rhs = lhs
			}
			m.AddRow("r", terms, sense, rhs)
		}
		want := bruteForce(m)
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(want) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj %v", trial, sol.Status, sol.Obj)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (brute %v)", trial, sol.Status, want)
		}
		if math.Abs(sol.Obj-want) > 1e-6 {
			t.Fatalf("trial %d: obj %v, want %v", trial, sol.Obj, want)
		}
		if obj, ok := m.CheckFeasible(sol.X, 1e-6); !ok || math.Abs(obj-sol.Obj) > 1e-6 {
			t.Fatalf("trial %d: returned X not feasible or obj mismatch", trial)
		}
	}
}

func TestWarmStart(t *testing.T) {
	// Provide the optimum as warm start with a node limit of 1: the
	// solver must keep it.
	m := NewModel()
	m.SetMaximize()
	a := m.AddBinary("a", 5)
	b := m.AddBinary("b", 4)
	m.AddRow("cap", []Term{{a, 3}, {b, 2}}, LE, 3)
	warm := []float64{1, 0}
	sol, err := m.Solve(Options{WarmStart: warm, NodeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == NoSolution || sol.Status == Infeasible {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Obj < 5-1e-9 {
		t.Fatalf("warm start lost: obj %v", sol.Obj)
	}
}

func TestInfeasibleWarmStartIgnored(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a", 1)
	m.AddRow("r", []Term{{a, 1}}, EQ, 1)
	sol, err := m.Solve(Options{WarmStart: []float64{0}}) // violates row
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Round(sol.X[a]) != 1 {
		t.Fatalf("status %v x %v", sol.Status, sol.X)
	}
}

func TestNodeLimitReturnsIncumbent(t *testing.T) {
	// A model big enough that the node limit certainly triggers before
	// exhaustion; warm start guarantees an incumbent survives.
	rng := rand.New(rand.NewSource(5))
	m := NewModel()
	m.SetMaximize()
	n := 40
	warm := make([]float64, n)
	var terms []Term
	for j := 0; j < n; j++ {
		m.AddBinary("x", 1+rng.Float64()*10)
		terms = append(terms, Term{j, 1 + rng.Float64()*5})
	}
	m.AddRow("cap", terms, LE, 30)
	sol, err := m.Solve(Options{NodeLimit: 20, Workers: 4, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Feasible {
		t.Fatalf("status %v, want feasible (budget hit with an incumbent)", sol.Status)
	}
	if _, ok := m.CheckFeasible(sol.X, 1e-6); !ok {
		t.Fatalf("incumbent infeasible")
	}
}

func TestContinuousMix(t *testing.T) {
	// One binary gate y, one continuous x ≤ 10y; max x - 0.5y → y=1,
	// x=10, obj 9.5.
	m := NewModel()
	m.SetMaximize()
	x := m.AddVar("x", 0, math.Inf(1), 1, false)
	y := m.AddBinary("y", -0.5)
	m.AddRow("gate", []Term{{x, 1}, {y, -10}}, LE, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Obj-9.5) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 9.5", sol.Status, sol.Obj)
	}
}

func TestGapReporting(t *testing.T) {
	m := NewModel()
	m.SetMaximize()
	for j := 0; j < 3; j++ {
		m.AddBinary("x", 1)
	}
	m.AddRow("r", []Term{{0, 1}, {1, 1}, {2, 1}}, LE, 2)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Gap > 1e-9 {
		t.Fatalf("status %v gap %v", sol.Status, sol.Gap)
	}
	if math.Abs(sol.Obj-2) > 1e-9 || math.Abs(sol.Bound-2) > 1e-6 {
		t.Fatalf("obj %v bound %v", sol.Obj, sol.Bound)
	}
}
