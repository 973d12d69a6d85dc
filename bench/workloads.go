package main

import (
	"fmt"
	"strconv"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// instance is one generated workload: the problem, a fresh scheduler
// per run (schedulers may keep per-run state), and the run options.
type instance struct {
	p     *core.Problem
	sched func() core.Scheduler
	opt   core.RunOptions
}

// workloadDef names a workload, says why it is in the benchmark, and
// builds one batch of it from a seed. A run measures `batches`
// independent batches of `tasks` tasks, each from its own seed derived
// from the run's seed. The interquartile range of one batch's wall time
// across seeds is about 20% of its median, whatever the batch size; the
// mean over 64 to 96 batches varies by 2-3%, and small batches keep one
// pass over them short enough to repeat in a run. Tests build smaller
// batches of the same shape.
type workloadDef struct {
	name           string
	why            string
	tasks, batches int
	// faulty workloads inject failures; only they may end Degraded.
	faulty bool
	build  func(seed int64, tasks int) (*instance, error)
}

// The four workloads separate the layers: a planner change should move
// image-wide-minmin and sat-disk-bipart but not image-scale-jdp, an
// executor change the reverse, an eviction change only
// sat-disk-bipart, and a change to the fault paths only
// image-faults-spec. The IP scheduler is left out: its solve budgets
// are wall-clock limits, so its schedule depends on machine speed.
var workloads = []workloadDef{
	{
		name:    "image-scale-jdp",
		why:     "IMAGE high overlap, 64 batches of 500 tasks on 64 nodes, JobDataPresent: the executor does ~95% of the work, so a planner change should not move it",
		tasks:   500,
		batches: 64,
		build: func(seed int64, tasks int) (*instance, error) {
			// About 40 tasks per patient. With fewer, larger hot groups
			// JDP's makespan swings by 15% from seed to seed.
			patients := max(tasks/40, 1)
			b, err := workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap,
				NumStorage: 4, Seed: seed, MaxPatients: patients})
			if err != nil {
				return nil, err
			}
			return &instance{p: &core.Problem{Batch: b, Platform: platform.XIO(64, 4, 0)},
				sched: func() core.Scheduler { return jdp.New() }}, nil
		},
	},
	{
		name:    "image-wide-minmin",
		why:     "IMAGE high overlap, 64 batches of 500 tasks on 512 nodes, MinMin: planning is most of the work and cluster state grows with nodes x files",
		tasks:   500,
		batches: 64,
		build: func(seed int64, tasks int) (*instance, error) {
			b, err := workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap,
				NumStorage: 4, Seed: seed})
			if err != nil {
				return nil, err
			}
			return &instance{p: &core.Problem{Batch: b, Platform: platform.XIO(512, 4, 0)},
				sched: func() core.Scheduler { return minmin.New() }}, nil
		},
	},
	{
		name:    "sat-disk-bipart",
		why:     "SAT medium overlap, 96 batches of 100 tasks, disk for 30% of the data, BiPartition: ~8 sub-batches per batch, the only workload that evicts",
		tasks:   100,
		batches: 96,
		build: func(seed int64, tasks int) (*instance, error) {
			b, err := workload.Sat(workload.SatConfig{NumTasks: tasks, Overlap: workload.MediumOverlap,
				NumStorage: 4, Seed: seed})
			if err != nil {
				return nil, err
			}
			const nodes = 16
			disk := b.TotalUniqueBytes(nil) * 3 / 10 / nodes
			// Small test batches would otherwise get disks smaller than
			// one task's inputs, which the paper's model rules out.
			for t := range b.Tasks {
				if n := b.TaskBytes(batch.TaskID(t)); n > disk {
					disk = n
				}
			}
			return &instance{p: &core.Problem{Batch: b, Platform: platform.XIO(nodes, 4, disk)},
				sched: func() core.Scheduler { return bipart.New(3) }}, nil
		},
	},
	{
		name:    "image-faults-spec",
		why:     "IMAGE high overlap, 96 batches of 150 tasks, harsh faults and single-fork speculation, MinMin: the executor's retry, recovery, requeue and twin paths",
		tasks:   150,
		batches: 96,
		faulty:  true,
		build: func(seed int64, tasks int) (*instance, error) {
			b, err := workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap,
				NumStorage: 4, Seed: seed})
			if err != nil {
				return nil, err
			}
			fp, err := faults.Parse(faultSpec + ",seed=" + strconv.FormatInt(seed, 10))
			if err != nil {
				return nil, err
			}
			sp, err := spec.Parse("single-fork:0.86")
			if err != nil {
				return nil, err
			}
			return &instance{p: &core.Problem{Batch: b, Platform: platform.XIO(16, 4, 0)},
				sched: func() core.Scheduler { return minmin.New() },
				opt:   core.RunOptions{Faults: fp, Spec: sp}}, nil
		},
	},
}

// faultSpec is the harsh preset with crashes brought inside the
// makespan. The re-queue budget is raised so that every task
// eventually runs: the workload exercises recovery, and a task
// abandoned as degraded would count as a failed operation.
const faultSpec = "harsh,mttf=120,budget=12"

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
