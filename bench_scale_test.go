package repro

import (
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

// scaleTiers sweeps task decades over the paper's IMAGE workload with a
// patient pool and cluster that grow with the batch, topping out at the
// DESIGN §14 target shape: 100k tasks over ~10k files (74 patients x
// 136 files) on 1k compute nodes.
var scaleTiers = []struct {
	tasks, patients, nodes int
}{
	{100, 1, 4},
	{1000, 8, 16},
	{10_000, 30, 64},
	{100_000, 74, 1000},
}

func scaleProblem(b *testing.B, tasks, patients, nodes int) *core.Problem {
	b.Helper()
	bt, err := workload.Image(workload.ImageConfig{
		NumTasks: tasks, Overlap: workload.HighOverlap,
		NumStorage: 4, Seed: 17, MaxPatients: patients,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Problem{Batch: bt, Platform: platform.XIO(nodes, 4, 0)}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkScale is the full-pipeline (plan + execute) sweep: one run
// per tier per scheme, reporting simulated makespan alongside wall
// time. `make bench-scale` parses this plus BenchmarkScalePlan into
// BENCH_scale.json.
func BenchmarkScale(b *testing.B) {
	schemes := []struct {
		name     string
		maxTasks int
		mk       func() core.Scheduler
	}{
		// MinMin stops at 10k: its plan now reaches 100k (see
		// BenchmarkScalePlan), but the §6 executor bounds the pipeline,
		// as it does JDP's 100k tier.
		{"MinMin", 10_000, func() core.Scheduler { return minmin.New() }},
		{"JobDataPresent", 100_000, func() core.Scheduler { return jdp.New() }},
	}
	for _, scheme := range schemes {
		for _, tier := range scaleTiers {
			if tier.tasks > scheme.maxTasks {
				continue
			}
			b.Run(fmt.Sprintf("%s/tasks=%d", scheme.name, tier.tasks), func(b *testing.B) {
				p := scaleProblem(b, tier.tasks, tier.patients, tier.nodes)
				b.ReportAllocs()
				runScheduler(b, p, scheme.mk(), "makespan_s")
			})
		}
	}
}

// runScheduler runs the whole pipeline b.N times and reports the last
// run's makespan under metric.
func runScheduler(b *testing.B, p *core.Problem, s core.Scheduler, metric string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunWith(p, s, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Makespan
	}
	b.ReportMetric(last, metric)
}

// BenchmarkScalePlan isolates the planner: a single PlanSubBatch call
// over the whole batch (unlimited disk, so every scheme plans all
// tasks in one sub-batch), no executor. The incremental MinMin
// re-verifies a stale entry by pricing only the nodes holding the
// task's inputs plus the head of each node class's ready order, so it
// runs the 100k/1k-node tier. The test-only reference planners are not
// benchmarked; DESIGN §14 keeps their last recorded times.
func BenchmarkScalePlan(b *testing.B) {
	schemes := []struct {
		name string
		mk   func() core.Scheduler
	}{
		{"MinMin", func() core.Scheduler { return minmin.New() }},
		{"JobDataPresent", func() core.Scheduler { return jdp.New() }},
	}
	for _, scheme := range schemes {
		for _, tier := range scaleTiers {
			b.Run(fmt.Sprintf("%s/tasks=%d", scheme.name, tier.tasks), func(b *testing.B) {
				p := scaleProblem(b, tier.tasks, tier.patients, tier.nodes)
				pending := make([]batch.TaskID, len(p.Batch.Tasks))
				for i := range pending {
					pending[i] = batch.TaskID(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := core.NewState(p)
					if err != nil {
						b.Fatal(err)
					}
					plan, err := scheme.mk().PlanSubBatch(st, pending)
					if err != nil {
						b.Fatal(err)
					}
					if len(plan.Tasks) != len(pending) {
						b.Fatalf("planned %d of %d tasks", len(plan.Tasks), len(pending))
					}
				}
			})
		}
	}
}
