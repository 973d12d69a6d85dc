package core_test

import (
	"fmt"
	"testing"
	"time"

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

// TestProbeReuseExact pins that the executor's two source-search
// reuses are exact: every greedy winner staged from its probe's slot
// and every commit-epoch memo hit is re-verified against a fresh
// bestSource over the same view, across schedulers, fault injection
// with speculation, and limited disk.
func TestProbeReuseExact(t *testing.T) {
	problem := func(seed int64, tasks, nodes int, limited bool) *core.Problem {
		b, err := workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap, NumStorage: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var disk int64
		if limited {
			// Half the working set across the cluster, but never less
			// than the largest task needs.
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
	type arm struct {
		name         string
		tasks, nodes int
		make         func(seed int64) core.Scheduler
	}
	arms := []arm{
		{"MinMin", 40, 4, func(int64) core.Scheduler { return minmin.New() }},
		{"JDP", 40, 4, func(int64) core.Scheduler { return jdp.New() }},
		{"BiPartition", 40, 4, func(seed int64) core.Scheduler { return bipart.New(seed) }},
		{"IP", 6, 2, func(seed int64) core.Scheduler {
			ip := ipsched.New(seed)
			ip.AllocBudget, ip.SelectBudget = time.Minute, time.Minute
			return ip
		}},
	}
	var total core.ReuseChecks
	var multiRound, twins int
	for _, a := range arms {
		for seed := int64(1); seed <= 3; seed++ {
			for _, faulty := range []bool{false, true} {
				for _, limited := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed%d/faults=%v/limited=%v", a.name, seed, faulty, limited)
					p := problem(seed, a.tasks, a.nodes, limited)
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
						// Journaled commits also hand the winner's
						// alternatives list through.
						opt.Obs.Journal = journal.New()
					}
					var res *core.Result
					var err error
					n, bad := core.CheckProbeReuse(func() { res, err = core.RunWith(p, a.make(seed), opt) })
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
				}
			}
		}
	}
	if total.PassThroughs == 0 || total.MemoHits == 0 || multiRound == 0 || twins == 0 {
		t.Fatalf("paths not exercised: %+v, %d multi-sub-batch runs, %d twins", total, multiRound, twins)
	}
	t.Logf("checked %+v over %d multi-sub-batch runs and %d twins", total, multiRound, twins)
}
