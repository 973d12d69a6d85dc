// Package experiments reproduces every figure of the paper's
// evaluation (§7): the workload and platform configuration of each
// experiment, the schedulers it compares, and runners that regenerate
// the same rows/series the paper plots. Both cmd/paperfigs and the
// repository's benchmark suite drive these runners.
//
// Calibration notes (see EXPERIMENTS.md): simulated platforms use the
// paper's published bandwidths; the Figure 5(b) per-node disk is
// scaled so the requirement/capacity ratio of the sweep matches the
// paper's (their 40 GB nodes against a ~330 GB peak requirement ⇒ our
// 12 GB nodes against the emulator's ~113-230 GB peak); IP solves are
// node-budgeted (the paper's lp_solve runs were minutes-to-hours at
// this scale; our branch and bound returns its best incumbent at the
// node limit, so IP cells are the same on every machine).
package experiments

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks workloads ~10× for smoke runs and benchmarks;
	// figures keep their shape but absolute values shrink.
	Quick bool
	// IPBudget is the IP scheduler's node budget: the branch-and-bound
	// nodes each portfolio dive of an allocation solve explores (a
	// selection solve gets half). ≤ 0 means FullIPBudget, or
	// QuickIPBudget when Quick is set.
	IPBudget int
	// Seed varies the generated workloads.
	Seed int64
	// SkipIP drops the IP scheduler from figures that include it.
	SkipIP bool
	// Workers bounds the parallelism of a figure run: the independent
	// (row × scheduler) cells of each figure fan out across this many
	// goroutines, and the hypergraph partitioner (BiPartition and the
	// IP scheduler's warm start) inherits the same setting; the IP
	// portfolio's size is fixed. 0 (or any
	// negative count) means runtime.GOMAXPROCS(0); 1 reproduces the
	// fully sequential run.
	// Table rows are merged in fixed order and every cell re-derives
	// its inputs from Seed, so Workers never changes the rows.
	Workers int
	// Obs attaches optional observability sinks to every cell run. The
	// tracer is shared across cells (its export sorts canonically);
	// metrics are recorded into a private per-cell registry and merged
	// into Obs.Metrics in cell-index order, so the aggregate snapshot
	// is identical at any worker count.
	Obs core.Observer
	// Faults injects the given failure scenario into every figure run
	// (nil = fault-free). The Chaos experiment ignores this and runs
	// its own scenario sweep.
	Faults *faults.FaultPlan
	// Spec forks speculative duplicates of straggling executions in
	// every figure run (nil = no speculation). The Chaos experiment
	// ignores this and runs its own {no-spec, spec} sweep.
	Spec *spec.Policy
}

// Default IP node budgets, calibrated in EXPERIMENTS.md against the
// wall-clock budgets they replace (20 s full scale, 3 s quick).
const (
	FullIPBudget  = ipsched.DefaultNodeBudget
	QuickIPBudget = 100
)

func (o Options) withDefaults() Options {
	if o.IPBudget <= 0 {
		if o.Quick {
			o.IPBudget = QuickIPBudget
		} else {
			o.IPBudget = FullIPBudget
		}
	}
	return o
}

func (o Options) tasks(full int) int {
	if o.Quick {
		n := full / 10
		if n < 8 {
			n = 8
		}
		return n
	}
	return full
}

// run executes one (problem, scheduler) pair under the cell's
// observer (zero Observer = unobserved, same schedule either way),
// optional fault scenario (nil = no faults drawn), and optional
// speculation policy (nil = no duplicate attempts).
func run(p *core.Problem, s core.Scheduler, ob core.Observer, fp *faults.FaultPlan, sp *spec.Policy) (*core.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return core.RunWith(p, s, core.RunOptions{Obs: ob, Faults: fp, Spec: sp})
}

// schedSpec names one scheduler column and builds fresh instances of
// it, so concurrent cells never share a scheduler value.
type schedSpec struct {
	name string
	isIP bool
	make func() core.Scheduler
}

// schedulerSet builds the figure-3/4 scheduler lineup.
func schedulerSet(o Options) []schedSpec {
	ss := []schedSpec{}
	if !o.SkipIP {
		ss = append(ss, schedSpec{name: "IP", isIP: true, make: func() core.Scheduler {
			ip := ipsched.New(o.Seed + 100)
			ip.NodeBudget = o.IPBudget
			ip.Workers = o.Workers
			return ip
		}})
	}
	ss = append(ss,
		schedSpec{name: "BiPartition", make: func() core.Scheduler {
			bp := bipart.New(o.Seed + 200)
			bp.Workers = o.Workers
			return bp
		}},
		schedSpec{name: "MinMin", make: func() core.Scheduler { return minmin.New() }},
		schedSpec{name: "JobDataPresent", make: func() core.Scheduler { return jdp.New() }},
	)
	return ss
}

func columnNames(ss []schedSpec) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.name
	}
	return names
}

// makeImage builds an IMAGE batch for the given overlap.
func makeImage(o Options, tasks, storage int, ov workload.Overlap) (*batch.Batch, error) {
	return workload.Image(workload.ImageConfig{
		NumTasks: tasks, Overlap: ov, NumStorage: storage, Seed: o.Seed + int64(ov)*7,
	})
}

// makeSat builds a SAT batch for the given overlap.
func makeSat(o Options, tasks, storage int, ov workload.Overlap) (*batch.Batch, error) {
	return workload.Sat(workload.SatConfig{
		NumTasks: tasks, Overlap: ov, NumStorage: storage, Seed: o.Seed + int64(ov)*13,
	})
}

// overlapFigure renders one panel of Figure 3/4: batch execution time
// for the three overlap classes under every scheduler.
func overlapFigure(o Options, app string, pf func() *platform.Platform,
	gen func(ov workload.Overlap) (*batch.Batch, error)) (*report.Table, error) {
	ss := schedulerSet(o)
	t := &report.Table{
		Title:   fmt.Sprintf("%s: batch execution time (s), %s", pf().Name, app),
		XLabel:  "overlap",
		YLabel:  "batch execution time (s)",
		Columns: columnNames(ss),
	}
	overlaps := []workload.Overlap{workload.HighOverlap, workload.MediumOverlap, workload.LowOverlap}
	vals := make([][]float64, len(overlaps))
	for r := range vals {
		vals[r] = make([]float64, len(ss))
	}
	// One cell per (overlap row × scheduler column); each regenerates
	// its workload from the seed, so cells share no state.
	err := forEachCellObserved(o.Workers, len(overlaps)*len(ss), o.Obs, func(i int, ob core.Observer) error {
		r, c := i/len(ss), i%len(ss)
		ov := overlaps[r]
		b, err := gen(ov)
		if err != nil {
			return err
		}
		res, err := run(&core.Problem{Batch: b, Platform: pf()}, ss[c].make(), ob, o.Faults, o.Spec)
		if err != nil {
			return fmt.Errorf("%s/%s/%v: %w", app, ss[c].name, ov, err)
		}
		vals[r][c] = res.Makespan
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, ov := range overlaps {
		t.AddRow(ov.String(), vals[r]...)
	}
	if !o.SkipIP {
		t.Notes = append(t.Notes, fmt.Sprintf("IP solves budgeted at %d branch-and-bound nodes per dive (best incumbent used)", o.IPBudget))
	}
	return t, nil
}

// Fig3 reproduces Figure 3: IMAGE on (a) OSUMED and (b) XIO storage,
// 100 tasks, 4 compute + 4 storage nodes, three overlap classes.
func Fig3(o Options) ([]*report.Table, error) {
	o = o.withDefaults()
	n := o.tasks(100)
	gen := func(ov workload.Overlap) (*batch.Batch, error) { return makeImage(o, n, 4, ov) }
	a, err := overlapFigure(o, fmt.Sprintf("IMAGE %d tasks", n), func() *platform.Platform { return platform.OSUMED(4, 4, 0) }, gen)
	if err != nil {
		return nil, err
	}
	a.Title = "Fig 3(a) " + a.Title
	bt, err := overlapFigure(o, fmt.Sprintf("IMAGE %d tasks", n), func() *platform.Platform { return platform.XIO(4, 4, 0) }, gen)
	if err != nil {
		return nil, err
	}
	bt.Title = "Fig 3(b) " + bt.Title
	return []*report.Table{a, bt}, nil
}

// Fig4 reproduces Figure 4: SAT on (a) OSUMED and (b) XIO storage.
func Fig4(o Options) ([]*report.Table, error) {
	o = o.withDefaults()
	n := o.tasks(100)
	gen := func(ov workload.Overlap) (*batch.Batch, error) { return makeSat(o, n, 4, ov) }
	a, err := overlapFigure(o, fmt.Sprintf("SAT %d tasks", n), func() *platform.Platform { return platform.OSUMED(4, 4, 0) }, gen)
	if err != nil {
		return nil, err
	}
	a.Title = "Fig 4(a) " + a.Title
	bt, err := overlapFigure(o, fmt.Sprintf("SAT %d tasks", n), func() *platform.Platform { return platform.XIO(4, 4, 0) }, gen)
	if err != nil {
		return nil, err
	}
	bt.Title = "Fig 4(b) " + bt.Title
	return []*report.Table{a, bt}, nil
}

// Fig5a reproduces Figure 5(a): the benefit of compute-to-compute
// replication over no replication, on 8 compute + 4 OSUMED storage
// nodes with 100-task high-overlap batches of both applications.
func Fig5a(o Options) ([]*report.Table, error) {
	o = o.withDefaults()
	n := o.tasks(100)
	t := &report.Table{
		Title:   "Fig 5(a) replication vs no replication (batch execution time, s)",
		XLabel:  "application",
		YLabel:  "batch execution time (s)",
		Columns: []string{"Replication", "NoReplication"},
	}
	apps := []string{"IMAGE", "SAT"}
	vals := make([][]float64, len(apps))
	for r := range vals {
		vals[r] = make([]float64, 2)
	}
	// One cell per (application × replication mode).
	err := forEachCellObserved(o.Workers, len(apps)*2, o.Obs, func(i int, ob core.Observer) error {
		r, c := i/2, i%2
		var b *batch.Batch
		var err error
		if apps[r] == "IMAGE" {
			// Four hot groups, as in the SAT workload: with more
			// compute nodes (8) than hot spots, tasks sharing files
			// necessarily span nodes and replication has room to help.
			b, err = workload.Image(workload.ImageConfig{
				NumTasks: n, Overlap: workload.HighOverlap, NumStorage: 4,
				Seed: o.Seed + 31, HotGroups: 4,
			})
		} else {
			b, err = makeSat(o, n, 4, workload.HighOverlap)
		}
		if err != nil {
			return err
		}
		s := bipart.New(o.Seed + 300)
		s.Workers = o.Workers
		res, err := run(&core.Problem{Batch: b, Platform: platform.OSUMED(8, 4, 0), DisableReplication: c == 1}, s, ob, o.Faults, o.Spec)
		if err != nil {
			return err
		}
		vals[r][c] = res.Makespan
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, app := range apps {
		t.AddRow(app, vals[r]...)
	}
	t.Notes = append(t.Notes, "scheduler: BiPartition; platform: 8 compute + 4 OSUMED storage nodes")
	return []*report.Table{t}, nil
}

// Fig5bDiskPerNode is the per-node compute disk of the Figure 5(b)
// sweep. The paper used 40 GB nodes (160 GB aggregate) against a
// 40→330 GB requirement sweep, i.e. the batch grows from comfortably
// fitting to ≈2× over-subscribed. The emulator's requirement sweep is
// ≈6→47 GB, so 6 GB nodes (24 GB aggregate) preserve that
// requirement/capacity trajectory (fits at 500 tasks, ≈2× at 4000).
const Fig5bDiskPerNode = 6 * platform.GB

// Fig5b reproduces Figure 5(b): batch execution time versus batch
// size under disk pressure (4 compute + 4 XIO storage nodes,
// high-overlap IMAGE).
func Fig5b(o Options) ([]*report.Table, error) {
	o = o.withDefaults()
	sizes := []int{500, 1000, 2000, 4000}
	disk := int64(Fig5bDiskPerNode)
	if o.Quick {
		sizes = []int{50, 100, 200, 400}
		disk /= 10
	}
	ss := []schedSpec{
		{name: "BiPartition", make: func() core.Scheduler {
			bp := bipart.New(o.Seed + 400)
			bp.Workers = o.Workers
			return bp
		}},
		{name: "MinMin", make: func() core.Scheduler { return minmin.New() }},
		{name: "JobDataPresent", make: func() core.Scheduler { return jdp.New() }},
	}
	t := &report.Table{
		Title:   "Fig 5(b) batch execution time vs batch size (IMAGE high overlap, limited disk)",
		XLabel:  "tasks",
		YLabel:  "batch execution time (s)",
		Columns: columnNames(ss),
	}
	vals := make([][]float64, len(sizes))
	for r := range vals {
		vals[r] = make([]float64, len(ss))
	}
	err := forEachCellObserved(o.Workers, len(sizes)*len(ss), o.Obs, func(i int, ob core.Observer) error {
		r, c := i/len(ss), i%len(ss)
		n := sizes[r]
		b, err := makeImage(o, n, 4, workload.HighOverlap)
		if err != nil {
			return err
		}
		res, err := run(&core.Problem{Batch: b, Platform: platform.XIO(4, 4, disk)}, ss[c].make(), ob, o.Faults, o.Spec)
		if err != nil {
			return fmt.Errorf("fig5b %s n=%d: %w", ss[c].name, n, err)
		}
		vals[r][c] = res.Makespan
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, n := range sizes {
		t.AddRow(fmt.Sprintf("%d", n), vals[r]...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-node disk %.0f GB (see EXPERIMENTS.md calibration); IP omitted as in the paper (prohibitive scheduling overhead)", float64(disk)/float64(platform.GB)))
	return []*report.Table{t}, nil
}

// Fig6 reproduces Figure 6: (a) batch execution time and (b) per-task
// scheduling time while the compute cluster scales 2→32 nodes
// (1000-task high-overlap IMAGE, 8 XIO storage nodes). The IP
// scheduler joins only the node counts where its model stays
// tractable, mirroring the paper's observation.
func Fig6(o Options) ([]*report.Table, error) {
	o = o.withDefaults()
	n := o.tasks(1000)
	nodes := []int{2, 4, 8, 16, 32}
	ipMaxNodes := 4 // IP measured only on the small configurations
	ss := schedulerSet(o)
	ta := &report.Table{
		Title:   "Fig 6(a) batch execution time vs compute nodes (IMAGE high overlap)",
		XLabel:  "nodes",
		YLabel:  "batch execution time (s)",
		Columns: columnNames(ss),
	}
	tb := &report.Table{
		Title:   "Fig 6(b) scheduling time per task (ms) vs compute nodes",
		XLabel:  "nodes",
		YLabel:  "scheduling ms per task",
		Columns: columnNames(ss),
	}
	valsA := make([][]float64, len(nodes))
	valsB := make([][]float64, len(nodes))
	miss := make([][]bool, len(nodes))
	for r := range nodes {
		valsA[r] = make([]float64, len(ss))
		valsB[r] = make([]float64, len(ss))
		miss[r] = make([]bool, len(ss))
	}
	err := forEachCellObserved(o.Workers, len(nodes)*len(ss), o.Obs, func(i int, ob core.Observer) error {
		r, c := i/len(ss), i%len(ss)
		C := nodes[r]
		if ss[c].isIP && C > ipMaxNodes {
			miss[r][c] = true
			return nil
		}
		b, err := makeImage(o, n, 8, workload.HighOverlap)
		if err != nil {
			return err
		}
		res, err := run(&core.Problem{Batch: b, Platform: platform.XIO(C, 8, 0)}, ss[c].make(), ob, o.Faults, o.Spec)
		if err != nil {
			return fmt.Errorf("fig6 %s C=%d: %w", ss[c].name, C, err)
		}
		valsA[r][c] = res.Makespan
		valsB[r][c] = res.SchedulingMSPerTask()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, C := range nodes {
		label := fmt.Sprintf("%d", C)
		ta.AddRowMissing(label, valsA[r], miss[r])
		tb.AddRowMissing(label, valsB[r], miss[r])
	}
	if !o.SkipIP {
		note := fmt.Sprintf("IP measured only up to %d nodes (budget %d nodes per dive); beyond that its overhead is prohibitive, as the paper reports", ipMaxNodes, o.IPBudget)
		ta.Notes = append(ta.Notes, note)
		tb.Notes = append(tb.Notes, note)
	}
	return []*report.Table{ta, tb}, nil
}

// All runs every figure.
func All(o Options) ([]*report.Table, error) {
	var out []*report.Table
	for _, f := range []func(Options) ([]*report.Table, error){Fig3, Fig4, Fig5a, Fig5b, Fig6} {
		ts, err := f(o)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}
