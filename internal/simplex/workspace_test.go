package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkspaceReuseMatchesFresh solves a stream of random LPs of
// varying shapes twice — once with a fresh solver per LP, once through
// a single reused Workspace — and demands bit-identical status,
// objective, iteration count and solution vector. This pins the
// workspace reset logic: any stale state leaking between solves would
// steer the pivot sequence apart.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := new(Workspace)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		A := make([][]float64, m)
		b := make([]float64, m)
		c := make([]float64, n)
		ub := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
			ub[j] = rng.Float64()*3 + 0.5
		}
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = rng.Float64()*2 - 0.5
			}
			b[i] = rng.Float64() * 2
		}
		lp := leq(c, A, b, ub)

		fresh, err := Solve(lp)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := SolveWS(ws, lp)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Status != reused.Status || fresh.Iters != reused.Iters {
			t.Fatalf("trial %d: fresh (%v, %d iters) vs reused (%v, %d iters)",
				trial, fresh.Status, fresh.Iters, reused.Status, reused.Iters)
		}
		if fresh.Status != Optimal {
			continue
		}
		if fresh.Obj != reused.Obj {
			t.Fatalf("trial %d: obj %v vs %v", trial, fresh.Obj, reused.Obj)
		}
		for j := range fresh.X {
			if fresh.X[j] != reused.X[j] {
				t.Fatalf("trial %d: X[%d] = %v vs %v", trial, j, fresh.X[j], reused.X[j])
			}
		}
	}
}

// TestWorkspaceXAliased documents the ownership contract: a second
// SolveWS on the same workspace overwrites the previous Result.X.
func TestWorkspaceXAliased(t *testing.T) {
	ws := new(Workspace)
	lp1 := leq([]float64{-1}, [][]float64{{1}}, []float64{2}, nil)
	res1, err := SolveWS(ws, lp1)
	if err != nil || res1.Status != Optimal {
		t.Fatalf("solve 1: %v %v", res1, err)
	}
	saved := append([]float64(nil), res1.X...)
	lp2 := leq([]float64{-1}, [][]float64{{1}}, []float64{5}, nil)
	if _, err := SolveWS(ws, lp2); err != nil {
		t.Fatal(err)
	}
	if res1.X[0] == saved[0] && math.Abs(saved[0]-2) < 1e-9 {
		t.Fatal("expected res1.X to be overwritten by the second solve (the documented aliasing)")
	}
}
