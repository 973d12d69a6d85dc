package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypergraph"
	"repro/internal/mip"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sched/bipart"
	"repro/internal/simplex"
	"repro/internal/workload"
)

// The paper-figure benchmarks run the experiment harness in quick mode
// (workloads ~10× smaller, so IP solves take seconds) so the whole suite
// regenerates every figure's shape in minutes. `go run ./cmd/paperfigs`
// produces the full-scale numbers recorded in EXPERIMENTS.md.

func quickOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

func benchFigure(b *testing.B, f func(experiments.Options) ([]*report.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := f(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (IMAGE, OSUMED+XIO storage,
// three overlap classes, four schedulers).
func BenchmarkFig3(b *testing.B) { benchFigure(b, experiments.Fig3) }

// BenchmarkFig4 regenerates Figure 4 (SAT, OSUMED+XIO storage).
func BenchmarkFig4(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig5a regenerates Figure 5(a) (replication vs none).
func BenchmarkFig5a(b *testing.B) { benchFigure(b, experiments.Fig5a) }

// BenchmarkFig5b regenerates Figure 5(b) (batch-size sweep under disk
// pressure).
func BenchmarkFig5b(b *testing.B) { benchFigure(b, experiments.Fig5b) }

// BenchmarkFig6 regenerates Figure 6(a) and 6(b) (compute-node sweep:
// batch time and per-task scheduling overhead).
func BenchmarkFig6(b *testing.B) { benchFigure(b, experiments.Fig6) }

// --- Parallel-core scaling benches ------------------------------------
//
// Workers=1 is the sequential baseline; higher counts measure the
// portfolio / concurrent-recursion speedup. On a single-core runner
// the sub-benchmarks coincide (GOMAXPROCS gates real parallelism) but
// they still exercise — and alloc-profile — the concurrent paths.

var workerCounts = []int{1, 2, 4}

// BenchmarkMIPSolve measures the branch-and-bound portfolio on a
// makespan-minimization assignment model at each worker count.
func BenchmarkMIPSolve(b *testing.B) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m := benchAssignmentModel(14, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := m.Solve(mip.Options{NodeLimit: 50000, Workers: w})
				if err != nil || sol.Status == mip.NoSolution {
					b.Fatalf("status %v err %v", sol.Status, err)
				}
			}
		})
	}
}

// benchAssignmentModel builds a tasks×nodes makespan model (the shape
// of the stage-2 IP's core) for the solver benches.
func benchAssignmentModel(tasks, nodes int) *mip.Model {
	rng := rand.New(rand.NewSource(21))
	m := mip.NewModel()
	z := m.AddVar("z", 0, 1e18, 1, false)
	for k := 0; k < tasks; k++ {
		var row []mip.Term
		for i := 0; i < nodes; i++ {
			v := m.AddBinary("x", 0)
			row = append(row, mip.Term{Var: v, Coef: 1})
		}
		m.AddRow("assign", row, mip.EQ, 1)
	}
	for i := 0; i < nodes; i++ {
		terms := []mip.Term{{Var: z, Coef: -1}}
		for k := 0; k < tasks; k++ {
			terms = append(terms, mip.Term{Var: 1 + k*nodes + i, Coef: 1 + rng.Float64()*4})
		}
		m.AddRow("load", terms, mip.LE, 0)
	}
	return m
}

// BenchmarkKWayPartition measures the recursive K-way partitioner at
// each worker count on a 2000-vertex hypergraph.
func BenchmarkKWayPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	hb := hypergraph.NewBuilder()
	for i := 0; i < 2000; i++ {
		hb.AddVertex(1 + int64(rng.Intn(10)))
	}
	for n := 0; n < 3000; n++ {
		size := 2 + rng.Intn(6)
		pins := rng.Perm(2000)[:size]
		hb.AddNet(1+int64(rng.Intn(100)), pins)
	}
	h, err := hb.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hypergraph.PartitionKWay(h, 16, hypergraph.KWayOptions{Eps: 0.1, Seed: 9, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBiPartitionPlan measures one BiPartition PlanSubBatch —
// a BINW sub-batch selection plus the K-way mapping of the chosen part
// — on the sat-disk-bipart shape: SAT medium overlap, 100 tasks, 16
// compute nodes, each with disk for 30% of the unique bytes / 16.
func BenchmarkBiPartitionPlan(b *testing.B) {
	bt, err := workload.Sat(workload.SatConfig{NumTasks: 100, Overlap: workload.MediumOverlap, NumStorage: 4, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 16
	disk := bt.TotalUniqueBytes(nil) * 3 / 10 / nodes
	for t := range bt.Tasks {
		disk = max(disk, bt.TaskBytes(batch.TaskID(t)))
	}
	st, err := core.NewState(&core.Problem{Batch: bt, Platform: platform.XIO(nodes, 4, disk)})
	if err != nil {
		b.Fatal(err)
	}
	s := bipart.New(3)
	pending := bt.AllTasks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PlanSubBatch(st, pending); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Workers measures the figure harness fan-out (quick
// Figure 3 without IP, so cells are cheap and the fan-out dominates).
func BenchmarkFig3Workers(b *testing.B) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := quickOpts()
			o.SkipIP = true
			o.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tables, err := experiments.Fig3(o)
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 || len(tables[0].Rows) == 0 {
					b.Fatal("empty figure")
				}
			}
		})
	}
}

// --- Substrate micro-benches ------------------------------------------

// BenchmarkSimplexAssignmentLP measures the LP engine on a transport-
// style relaxation (the core of every IP node solve).
func BenchmarkSimplexAssignmentLP(b *testing.B) {
	const T, N = 120, 8
	rng := rand.New(rand.NewSource(3))
	lp := &simplex.LP{NumRows: T + N}
	for k := 0; k < T; k++ {
		for i := 0; i < N; i++ {
			lp.Cost = append(lp.Cost, 1+rng.Float64()*9)
			lp.Lower = append(lp.Lower, 0)
			lp.Upper = append(lp.Upper, 1)
			lp.Cols = append(lp.Cols, []simplex.Entry{{Row: int32(k), Val: 1}, {Row: int32(T + i), Val: 1}})
		}
		lp.B = append(lp.B, 1)
	}
	for i := 0; i < N; i++ {
		lp.B = append(lp.B, float64(T)/N+3)
		lp.Cost = append(lp.Cost, 0)
		lp.Lower = append(lp.Lower, 0)
		lp.Upper = append(lp.Upper, 1e18)
		lp.Cols = append(lp.Cols, []simplex.Entry{{Row: int32(T + i), Val: 1}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := simplex.Solve(lp)
		if err != nil || res.Status != simplex.Optimal {
			b.Fatalf("status %v err %v", res.Status, err)
		}
	}
}

// BenchmarkMIPKnapsack measures branch and bound on a 30-item 0-1
// knapsack.
func BenchmarkMIPKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := mip.NewModel()
	m.SetMaximize()
	var terms []mip.Term
	for j := 0; j < 30; j++ {
		m.AddBinary("x", 1+rng.Float64()*9)
		terms = append(terms, mip.Term{Var: j, Coef: 1 + rng.Float64()*5})
	}
	m.AddRow("cap", terms, mip.LE, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := m.Solve(mip.Options{NodeLimit: 200000})
		if err != nil || sol.Status == mip.NoSolution {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
	}
}

// onePlan is a core.Scheduler that returns one precomputed sub-batch
// plan and never evicts.
type onePlan struct{ plan *core.SubPlan }

func (s onePlan) Name() string                                                    { return "fixed" }
func (s onePlan) PlanSubBatch(*core.State, []batch.TaskID) (*core.SubPlan, error) { return s.plan, nil }
func (s onePlan) Evict(*core.State, []batch.TaskID)                               {}

// BenchmarkRuntimeStage measures the §6 Gantt-chart executor on a
// 1000-task sub-batch: a precomputed plan run through core.RunFrom.
func BenchmarkRuntimeStage(b *testing.B) {
	bt, err := workload.Image(workload.ImageConfig{NumTasks: 1000, Overlap: workload.HighOverlap, NumStorage: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{Batch: bt, Platform: platform.XIO(8, 4, 0)}
	s := bipart.New(3)
	st, err := core.NewState(p)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := s.PlanSubBatch(st, bt.AllTasks())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.NewState(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunFrom(st, onePlan{plan}, plan.Tasks, core.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures the IMAGE emulator.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Image(workload.ImageConfig{NumTasks: 1000, Overlap: workload.HighOverlap, NumStorage: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
