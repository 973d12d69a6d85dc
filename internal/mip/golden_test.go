package mip

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/workers1_golden.txt")

const workers1GoldenPath = "testdata/workers1_golden.txt"

type goldenCase struct {
	name string
	m    *Model
	opt  Options
}

// workers1Cases lists the instances pinned by TestWorkers1Golden: small
// knapsacks and assignments solved to completion, larger ones cut off
// by a 400-node budget, where the node count and incumbent depend on
// the exact dive order, and a warm-started knapsack under a small
// budget.
func workers1Cases() []goldenCase {
	type tc = goldenCase
	var cases []tc
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases, tc{fmt.Sprintf("knapsack-%d-24", seed), randomKnapsack(seed, 24), Options{Workers: 1}})
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, tc{fmt.Sprintf("assign-%d-10x3", seed*7), randomAssignment(seed*7, 10, 3), Options{Workers: 1}})
	}
	for seed := int64(1); seed <= 5; seed++ {
		cases = append(cases,
			tc{fmt.Sprintf("knapsack-%d-40-n400", seed*11), randomKnapsack(seed*11, 40), Options{Workers: 1, NodeLimit: 400}},
			tc{fmt.Sprintf("assign-%d-12x4-n400", seed*13), randomAssignment(seed*13, 12, 4), Options{Workers: 1, NodeLimit: 400}})
	}
	warm := randomKnapsack(3, 20)
	cases = append(cases, tc{"knapsack-3-20-warm-n50", warm, Options{Workers: 1, NodeLimit: 50, WarmStart: make([]float64, warm.NumVars())}})
	return cases
}

// goldenLine renders a solution with every float as its IEEE-754 bits,
// so a one-ulp drift in any value changes the line.
func goldenLine(name string, sol *Solution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s status=%s obj=%016x bound=%016x gap=%016x nodes=%d x=",
		name, sol.Status, math.Float64bits(sol.Obj), math.Float64bits(sol.Bound),
		math.Float64bits(sol.Gap), sol.Nodes)
	for j, v := range sol.X {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(v))
	}
	return b.String()
}

// TestWorkers1Golden pins the one-worker solve bit for bit: status,
// objective, bound, gap, node count and solution vector of every
// workers1Cases instance. Run with -update to rewrite the file.
func TestWorkers1Golden(t *testing.T) {
	var got []string
	for _, c := range workers1Cases() {
		sol, err := c.m.Solve(c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenLine(c.name, sol))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workers1GoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(workers1GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d golden lines, %d solves", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("solve %d differs:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
