package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// exactnessProblem is the IMAGE high-overlap batch of the exactness
// matrix on an XIO platform with nodes compute nodes: unlimited disk,
// or (limited) half the working set across the cluster but never less
// than the largest task needs.
func exactnessProblem(t *testing.T, seed int64, tasks, nodes int, limited bool) *core.Problem {
	t.Helper()
	b, err := workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap, NumStorage: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	if limited {
		disk = b.TotalUniqueBytes(nil) / int64(2*nodes)
		for _, tk := range b.Tasks {
			var need int64
			for _, f := range tk.Files {
				need += b.FileSize(f)
			}
			disk = max(disk, need)
		}
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(nodes, 2, disk)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// exactnessRuns runs every configuration of the executor-exactness
// matrix through run: the four schedulers (a tiny IP model, whose
// pinned plans reach the dynamic staging loop only through twin
// planning) × three seeds × {no faults, harsh faults with single-fork
// speculation} × {unlimited, limited disk}, with the journal on for odd
// seeds so journaled commits hand the winner's alternatives list
// through.
func exactnessRuns(t *testing.T, run func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions)) {
	t.Helper()
	type arm struct {
		name         string
		tasks, nodes int
		seeds        []int64
		make         func(seed int64) core.Scheduler
	}
	arms := []arm{
		{"MinMin", 40, 4, []int64{1, 2, 3}, func(int64) core.Scheduler { return minmin.New() }},
		{"JDP", 40, 4, []int64{1, 2, 3}, func(int64) core.Scheduler { return jdp.New() }},
		{"BiPartition", 40, 4, []int64{1, 2, 3}, func(seed int64) core.Scheduler { return bipart.New(seed) }},
		// Seeds whose IP model solves in milliseconds; seed 4's harsh
		// run forks twins.
		{"IP", 8, 2, []int64{2, 3, 4}, func(seed int64) core.Scheduler {
			ip := ipsched.New(seed)
			ip.NodeBudget = 100000 // every solve runs to optimality
			return ip
		}},
	}
	for _, a := range arms {
		for _, seed := range a.seeds {
			for _, faulty := range []bool{false, true} {
				for _, limited := range []bool{false, true} {
					opt := core.RunOptions{Checked: true}
					if faulty {
						fp, err := faults.Parse("harsh,mttf=120,budget=12")
						if err != nil {
							t.Fatal(err)
						}
						fp.Seed = seed
						pol, err := spec.Parse("single-fork:0.86")
						if err != nil {
							t.Fatal(err)
						}
						opt.Faults, opt.Spec = fp, pol
					}
					if seed%2 == 1 {
						opt.Obs.Journal = journal.New()
					}
					run(fmt.Sprintf("%s/seed%d/faults=%v/limited=%v", a.name, seed, faulty, limited),
						exactnessProblem(t, seed, a.tasks, a.nodes, limited), a.make(seed), opt)
				}
			}
		}
	}
}

// TestProbeReuseExact pins that the executor's two source-search
// reuses are exact: every greedy winner staged from its probe's slot
// and every commit-epoch memo hit is re-verified against a fresh
// bestSource over the same view, across the exactness matrix.
func TestProbeReuseExact(t *testing.T) {
	var total core.ReuseChecks
	var multiRound, twins int
	exactnessRuns(t, func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions) {
		var res *core.Result
		var err error
		n, bad := core.CheckProbeReuse(func() { res, err = core.RunWith(p, s, opt) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range bad {
			t.Errorf("%s: %s", name, m)
		}
		if got := n.PassThroughs + n.MemoHits; got != res.ProbeReuses {
			t.Errorf("%s: %d reuses checked, ProbeReuses = %d", name, got, res.ProbeReuses)
		}
		total.PassThroughs += n.PassThroughs
		total.MemoHits += n.MemoHits
		if res.SubBatches > 1 {
			multiRound++
		}
		twins += res.SpecLaunches
	})
	if total.PassThroughs == 0 || total.MemoHits == 0 || multiRound == 0 || twins == 0 {
		t.Fatalf("paths not exercised: %+v, %d multi-sub-batch runs, %d twins", total, multiRound, twins)
	}
	t.Logf("checked %+v over %d multi-sub-batch runs and %d twins", total, multiRound, twins)
}
