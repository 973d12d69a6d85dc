package core

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/gantt"
	"repro/internal/platform"
)

// twoNodeProblem builds a 2-compute/1-storage platform with uniform
// bandwidths chosen for easy arithmetic: remote 10 MB/s, replica
// 100 MB/s, local read 40 MB/s.
func twoNodeProblem(t *testing.T, b *batch.Batch) *Problem {
	t.Helper()
	p := &Problem{Batch: b, Platform: platform.Uniform(2, 1, 0, 10*platform.MB, 100*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecuteSingleTaskTiming(t *testing.T) {
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	task := b.AddTask("t", 1.0, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}}
	stats, err := Execute(st, plan)
	if err != nil {
		t.Fatal(err)
	}
	// transfer 10MB @ 10MB/s = 1 s; local read 10MB @ 40MB/s = 0.25 s;
	// compute 1 s → makespan 2.25 s.
	want := 1.0 + 0.25 + 1.0
	if diff := stats.Makespan - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan = %v, want %v", stats.Makespan, want)
	}
	if stats.RemoteTransfers != 1 || stats.ReplicaTransfers != 0 {
		t.Fatalf("transfers %d/%d", stats.RemoteTransfers, stats.ReplicaTransfers)
	}
	if !st.Holds(0, f) {
		t.Fatal("file not recorded on node 0")
	}
	if !st.Done[task] {
		t.Fatal("task not marked done")
	}
	if st.Clock != stats.Makespan {
		t.Fatal("clock not advanced")
	}
}

func TestExecutePrefersReplicaSource(t *testing.T) {
	// File already on node 1; a task on node 0 should pull the replica
	// (100 MB/s) instead of the remote path (10 MB/s).
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	task := b.AddTask("t", 0.1, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(1, f, 0); err != nil {
		t.Fatal(err)
	}
	plan := &SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}}
	stats, err := Execute(st, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplicaTransfers != 1 || stats.RemoteTransfers != 0 {
		t.Fatalf("expected one replica transfer, got %d/%d", stats.ReplicaTransfers, stats.RemoteTransfers)
	}
}

func TestExecutePinnedPlanFollowsSources(t *testing.T) {
	// Pinned plan: file staged remotely to node 1, then replicated
	// 1 → 0 where the task runs. The executor must realize the chain.
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	task := b.AddTask("t", 0.1, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &SubPlan{
		Tasks:  []batch.TaskID{task},
		Node:   map[batch.TaskID]int{task: 0},
		Pinned: true,
		Staging: []Staging{
			{File: f, Dest: 1, Kind: Remote},
			{File: f, Dest: 0, Kind: Replica, Src: 1},
		},
	}
	stats, err := Execute(st, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteTransfers != 1 || stats.ReplicaTransfers != 1 {
		t.Fatalf("chain not realized: %d remote / %d replica", stats.RemoteTransfers, stats.ReplicaTransfers)
	}
	if !st.Holds(1, f) || !st.Holds(0, f) {
		t.Fatal("chain did not leave copies on both nodes")
	}
}

func TestExecutePinnedCycleFallsBack(t *testing.T) {
	// A (nonsensical) cyclic pinned plan: 0 sources from 1 and 1 from
	// 0. The executor must break the cycle with a remote transfer
	// instead of deadlocking.
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	t0 := b.AddTask("t0", 0.1, []batch.FileID{f})
	t1 := b.AddTask("t1", 0.1, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	plan := &SubPlan{
		Tasks:  []batch.TaskID{t0, t1},
		Node:   map[batch.TaskID]int{t0: 0, t1: 1},
		Pinned: true,
		Staging: []Staging{
			{File: f, Dest: 0, Kind: Replica, Src: 1},
			{File: f, Dest: 1, Kind: Replica, Src: 0},
		},
	}
	stats, err := Execute(st, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteTransfers < 1 {
		t.Fatal("cycle not broken by a remote transfer")
	}
	if !st.Done[t0] || !st.Done[t1] {
		t.Fatal("tasks did not complete")
	}
}

func TestExecuteDiskCapacityViolationSurfaces(t *testing.T) {
	b := batch.New()
	f1 := b.AddFile("f1", 60*platform.MB, 0)
	f2 := b.AddFile("f2", 60*platform.MB, 0)
	t0 := b.AddTask("t0", 0.1, []batch.FileID{f1})
	t1 := b.AddTask("t1", 0.1, []batch.FileID{f2})
	p := &Problem{Batch: b, Platform: platform.Uniform(1, 1, 100*platform.MB, 10*platform.MB, 100*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	// A buggy plan placing both tasks (120 MB) on the 100 MB node.
	plan := &SubPlan{Tasks: []batch.TaskID{t0, t1}, Node: map[batch.TaskID]int{t0: 0, t1: 0}}
	if _, err := Execute(st, plan); err == nil {
		t.Fatal("capacity violation not reported")
	}
}

func TestExecuteSharedFileTransferredOnce(t *testing.T) {
	// Ten tasks on one node sharing one file: exactly one transfer.
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	var ts []batch.TaskID
	node := map[batch.TaskID]int{}
	for i := 0; i < 10; i++ {
		k := b.AddTask("t", 0.1, []batch.FileID{f})
		ts = append(ts, k)
		node[k] = 0
	}
	p := twoNodeProblem(t, b)
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Execute(st, &SubPlan{Tasks: ts, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteTransfers != 1 {
		t.Fatalf("shared file transferred %d times", stats.RemoteTransfers)
	}
	// Tasks serialize on the node port: makespan ≥ 10 × exec.
	exec := 0.25 + 0.1
	if stats.Makespan < 1.0+10*exec-1e-9 {
		t.Fatalf("makespan %v too small for serialized execution", stats.Makespan)
	}
}

func TestExecuteNoStagingDuringExecutionOnNode(t *testing.T) {
	// With one compute node, its port serializes transfer+exec, so the
	// makespan is the exact sum for two tasks with distinct files.
	b := batch.New()
	f1 := b.AddFile("f1", 10*platform.MB, 0)
	f2 := b.AddFile("f2", 10*platform.MB, 0)
	t0 := b.AddTask("t0", 0.5, []batch.FileID{f1})
	t1 := b.AddTask("t1", 0.5, []batch.FileID{f2})
	p := &Problem{Batch: b, Platform: platform.Uniform(1, 1, 0, 10*platform.MB, 100*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Execute(st, &SubPlan{Tasks: []batch.TaskID{t0, t1}, Node: map[batch.TaskID]int{t0: 0, t1: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: both transfers (2×1s) + both execs (2×0.75s) all on
	// one port = 3.5 s. (The ECT order may interleave, but the port
	// serializes everything, so the sum is exact.)
	want := 2*1.0 + 2*(0.25+0.5)
	if diff := stats.Makespan - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan = %v, want %v", stats.Makespan, want)
	}
}

// TestStageInputsUnsortedMidPass pins the mid-pass fallback of the
// staging loop's lower bounds: when a staging reservation leaves an
// overlay's interval ends unsorted, every later round re-prices every
// remaining file. A 1-byte replica (0.09 ns, under OverlapEps) whose
// source copy arrives just inside the eps window of a tentative busy
// interval wins the first round and lands under that interval's end;
// the two tied remote files after it must then both be re-priced.
func TestStageInputsUnsortedMidPass(t *testing.T) {
	b := batch.New()
	z := b.AddFile("z", 1, 0)
	f := b.AddFile("f", 10*platform.MB, 0)
	g := b.AddFile("g", 10*platform.MB, 0)
	task := b.AddTask("t", 1, []batch.FileID{z, f, g})
	p := &Problem{Batch: b, Platform: platform.Uniform(2, 1, 0, 10*platform.MB, 10*platform.GB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newExecutor(st, &SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}}, false, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.storageTL[0].Reserve(0, 100, tagFault) // remote copies wait until 100
	v := e.tentativeEnv()
	v.reserve(e.computeTL[0], 5, 5, tagExec)
	v.setAvail(1, z, 5+gantt.OverlapEps/2)
	rounds, bad := CheckLazyStaging(func() {
		if _, err = v.stageInputs([]batch.FileID{z, f, g}, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	for _, m := range bad {
		t.Error(m)
	}
	if !v.unsorted || rounds != 3 {
		t.Fatalf("unsorted = %v after %d rounds; the replica should leave the overlay unsorted", v.unsorted, rounds)
	}
	if e.stats.Probes != 6 || e.stats.BoundSkips != 0 {
		t.Fatalf("Probes/BoundSkips = %d/%d, want 6/0", e.stats.Probes, e.stats.BoundSkips)
	}
}
