package ipsched

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

func tinyProblem(t *testing.T, tasks int, overlap workload.Overlap, disk int64) *core.Problem {
	t.Helper()
	b, err := workload.Sat(workload.SatConfig{NumTasks: tasks, Overlap: overlap, NumStorage: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(2, 2, disk)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIPRunsUnlimited(t *testing.T) {
	p := tinyProblem(t, 10, workload.HighOverlap, 0)
	s := New(1)
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBatches != 1 {
		t.Errorf("sub-batches = %d, want 1", res.SubBatches)
	}
	if res.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
}

func TestIPPlanIsPinnedAndComplete(t *testing.T) {
	p := tinyProblem(t, 8, workload.HighOverlap, 0)
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	s := New(2)
	plan, err := s.PlanSubBatch(st, p.Batch.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Pinned {
		t.Error("IP plan must be pinned")
	}
	if len(plan.Tasks) != 8 {
		t.Errorf("planned %d of 8 tasks", len(plan.Tasks))
	}
	// Every file of every task must be covered by a staging op on the
	// task's node (initial cluster is empty).
	staged := make(map[[2]int]bool)
	for _, op := range plan.Staging {
		staged[[2]int{int(op.File), op.Dest}] = true
	}
	for _, k := range plan.Tasks {
		n := plan.Node[k]
		for _, f := range p.Batch.Tasks[k].Files {
			if !staged[[2]int{int(f), n}] {
				t.Fatalf("task %d on node %d: file %d has no staging op", k, n, f)
			}
		}
	}
	// Every file must be remote-transferred at least once (Eq. 8).
	remote := make(map[batch.FileID]bool)
	for _, op := range plan.Staging {
		if op.Kind == core.Remote {
			remote[op.File] = true
		}
	}
	for f := 0; f < p.Batch.NumFiles(); f++ {
		if len(p.Batch.Require(batch.FileID(f))) > 0 && !remote[batch.FileID(f)] {
			t.Fatalf("file %d never remote-transferred", f)
		}
	}
}

func TestIPBeatsOrMatchesHeuristicsOnSharedTiny(t *testing.T) {
	// With plenty of sharing and a tight node budget the IP (warm-
	// started) must be at least as good as the baselines on the IP's
	// own objective proxy — we compare simulated makespans and allow a
	// 10% tolerance for runtime-stage effects the static IP cannot see.
	p := tinyProblem(t, 12, workload.HighOverlap, 0)
	ip := New(3)
	resIP, err := core.RunWith(p, ip, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheduler{minmin.New(), jdp.New(), bipart.New(4)} {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if resIP.Makespan > res.Makespan*1.10 {
			t.Errorf("IP makespan %v clearly worse than %s %v", resIP.Makespan, s.Name(), res.Makespan)
		}
	}
}

func TestIPLimitedDiskTwoStage(t *testing.T) {
	b, err := workload.Sat(workload.SatConfig{NumTasks: 16, Overlap: workload.LowOverlap, NumStorage: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := b.TotalUniqueBytes(nil)
	p := &core.Problem{Batch: b, Platform: platform.XIO(2, 2, total/3)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := New(6)
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBatches < 2 {
		t.Errorf("expected ≥2 sub-batches, got %d", res.SubBatches)
	}
}

func TestIPDisableReplication(t *testing.T) {
	p := tinyProblem(t, 8, workload.HighOverlap, 0)
	p.DisableReplication = true
	s := New(7)
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicaTransfers != 0 {
		t.Errorf("%d replica transfers with replication disabled", res.ReplicaTransfers)
	}
}

func TestFileClassMerging(t *testing.T) {
	// Three files shared by the same two tasks must collapse into one
	// class; a file with a different sharer set must not.
	b := batch.New()
	f1 := b.AddFile("a", 10, 0)
	f2 := b.AddFile("b", 20, 0)
	f3 := b.AddFile("c", 30, 0)
	f4 := b.AddFile("d", 40, 0)
	b.AddTask("t0", 1, []batch.FileID{f1, f2, f3, f4})
	b.AddTask("t1", 1, []batch.FileID{f1, f2, f3})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 1, 0, 100, 1000)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	ins := buildInstance(st, b.AllTasks())
	if len(ins.classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(ins.classes))
	}
	sizes := map[int64]bool{}
	for _, c := range ins.classes {
		sizes[c.size] = true
	}
	if !sizes[60] || !sizes[40] {
		t.Fatalf("class sizes wrong: %+v", ins.classes)
	}
}

func TestClassSplitByPresence(t *testing.T) {
	// Same sharer set but different current placement → separate
	// classes.
	b := batch.New()
	f1 := b.AddFile("a", 10, 0)
	f2 := b.AddFile("b", 20, 0)
	b.AddTask("t0", 1, []batch.FileID{f1, f2})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 1, 0, 100, 1000)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(0, f1, 0); err != nil {
		t.Fatal(err)
	}
	ins := buildInstance(st, b.AllTasks())
	if len(ins.classes) != 2 {
		t.Fatalf("classes = %d, want 2 (presence differs)", len(ins.classes))
	}
}
