package core

import (
	"strings"
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

// execute runs one sub-batch plan through the fault-free §6 runtime
// stage on st: staged files enter the disk cache, tasks are marked
// done, and the clock advances by the makespan.
func execute(st *State, plan *SubPlan) (*ExecStats, error) {
	return ExecuteBooked(st, plan, nil)
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
	stats, err := execute(st, plan)
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
	stats, err := execute(st, plan)
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
	stats, err := execute(st, plan)
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
	// instead of deadlocking, and then not copy the file back onto the
	// node the remote transfer already filled (the validator rejects a
	// file staged twice onto one node).
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	t0 := b.AddTask("t0", 0.1, []batch.FileID{f})
	t1 := b.AddTask("t1", 0.1, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	plan := &SubPlan{
		Tasks:  []batch.TaskID{t0, t1},
		Node:   map[batch.TaskID]int{t0: 0, t1: 1},
		Pinned: true,
		Staging: []Staging{
			{File: f, Dest: 0, Kind: Replica, Src: 1},
			{File: f, Dest: 1, Kind: Replica, Src: 0},
		},
	}
	res, err := RunWith(p, fixedPlan{plan}, RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteTransfers != 1 || res.ReplicaTransfers != 1 {
		t.Fatalf("remote/replica transfers = %d/%d, want 1/1: one remote breaks the cycle, one copy serves the other node",
			res.RemoteTransfers, res.ReplicaTransfers)
	}
	if res.TasksRun != 2 {
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
	if _, err := execute(st, plan); err == nil {
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
	stats, err := execute(st, &SubPlan{Tasks: ts, Node: node})
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
	stats, err := execute(st, &SubPlan{Tasks: []batch.TaskID{t0, t1}, Node: map[batch.TaskID]int{t0: 0, t1: 0}})
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
	e, err := newExecutor(st, &SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}}, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.storageTL[0].Reserve(0, 100) // remote copies wait until 100
	v := e.tentativeEnv()
	v.reserve(e.computePort(0), 5, 5)
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

// fixedPlan is a Scheduler that answers every round with one plan.
type fixedPlan struct{ plan *SubPlan }

func (s fixedPlan) Name() string                                          { return "fixed" }
func (s fixedPlan) PlanSubBatch(*State, []batch.TaskID) (*SubPlan, error) { return s.plan, nil }
func (s fixedPlan) Evict(*State, []batch.TaskID)                          {}

// TestMalformedPlansRejected pins that a plan naming a task twice, or
// a staging entry naming an unknown file, node or kind, fails the run
// with an error instead of running a task twice or panicking.
func TestMalformedPlansRejected(t *testing.T) {
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	task := b.AddTask("t", 1, []batch.FileID{f})
	p := twoNodeProblem(t, b)
	one := []batch.TaskID{task}
	node := map[batch.TaskID]int{task: 0}
	for _, tc := range []struct {
		name string
		plan SubPlan
		want string
	}{
		{"task listed twice", SubPlan{Tasks: []batch.TaskID{task, task}, Node: node}, "lists task 0 twice"},
		{"pre-stage of an unknown file", SubPlan{Tasks: one, Node: node,
			PreStage: []Staging{{File: 99, Dest: 0}}}, "unknown file 99"},
		{"pre-stage onto an unknown node", SubPlan{Tasks: one, Node: node,
			PreStage: []Staging{{File: f, Dest: 7}}}, "onto unknown node 7"},
		{"pre-stage from an unknown replica", SubPlan{Tasks: one, Node: node,
			PreStage: []Staging{{File: f, Dest: 1, Kind: Replica, Src: -2}}}, "from unknown node -2"},
		{"pinned copy from an unknown replica", SubPlan{Tasks: one, Node: node, Pinned: true,
			Staging: []Staging{{File: f, Dest: 0, Kind: Replica, Src: 5}}}, "from unknown node 5"},
		{"pinned entry of an unknown kind", SubPlan{Tasks: one, Node: node, Pinned: true,
			Staging: []Staging{{File: f, Dest: 0, Kind: 2}}}, "unknown kind 2"},
	} {
		res, err := RunWith(p, fixedPlan{&tc.plan}, RunOptions{Checked: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got result %+v, error %v; want an error containing %q", tc.name, res, err, tc.want)
		}
	}
	// An unpinned plan's staging list is never read, so it is not checked.
	ignored := SubPlan{Tasks: one, Node: node, Staging: []Staging{{File: 99, Dest: 7}}}
	res, err := RunWith(p, fixedPlan{&ignored}, RunOptions{Checked: true})
	if err != nil || res.TasksRun != 1 {
		t.Fatalf("unpinned plan with a stray staging list: result %+v, error %v", res, err)
	}
}
