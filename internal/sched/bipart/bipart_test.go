package bipart

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

func state(t *testing.T, b *batch.Batch, compute int, disk int64) *core.State {
	t.Helper()
	p := &core.Problem{Batch: b, Platform: platform.XIO(compute, 2, disk)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSingleSubBatchWhenFits checks that with unlimited disk the whole
// batch is planned as one sub-batch.
func TestSingleSubBatchWhenFits(t *testing.T) {
	b, err := workload.Sat(workload.SatConfig{NumTasks: 30, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := state(t, b, 4, 0)
	plan, err := New(1).PlanSubBatch(st, b.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 30 {
		t.Fatalf("planned %d of 30", len(plan.Tasks))
	}
	if plan.Pinned {
		t.Fatal("BiPartition plans are not pinned")
	}
}

func TestSubBatchRespectsAggregateDisk(t *testing.T) {
	b, err := workload.Sat(workload.SatConfig{NumTasks: 40, Overlap: workload.LowOverlap, NumStorage: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := b.TotalUniqueBytes(nil)
	per := total / 8 // 4 nodes → aggregate = half the batch
	st := state(t, b, 4, per)
	plan, err := New(2).PlanSubBatch(st, b.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) == 0 || len(plan.Tasks) == 40 {
		t.Fatalf("sub-batch size %d; expected a strict subset", len(plan.Tasks))
	}
	if got := b.TotalUniqueBytes(plan.Tasks); got > 4*per {
		t.Fatalf("sub-batch working set %d exceeds aggregate disk %d", got, 4*per)
	}
}

func TestMappingClustersSharers(t *testing.T) {
	// Two disjoint task families sharing big files internally: the
	// partitioner must not split a family across nodes.
	b := batch.New()
	fA := b.AddFile("A", 500*platform.MB, 0)
	fB := b.AddFile("B", 500*platform.MB, 1)
	for i := 0; i < 4; i++ {
		b.AddTask("a", 1, []batch.FileID{fA})
		b.AddTask("b", 1, []batch.FileID{fB})
	}
	st := state(t, b, 2, 0)
	plan, err := New(3).PlanSubBatch(st, b.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	nodeOfA := map[int]bool{}
	nodeOfB := map[int]bool{}
	for _, k := range plan.Tasks {
		if b.Tasks[k].Files[0] == fA {
			nodeOfA[plan.Node[k]] = true
		} else {
			nodeOfB[plan.Node[k]] = true
		}
	}
	if len(nodeOfA) != 1 || len(nodeOfB) != 1 {
		t.Fatalf("families split: A on %v, B on %v", nodeOfA, nodeOfB)
	}
}

func TestRepairDropsTasksOverPerNodeDisk(t *testing.T) {
	// Aggregate fits but any single node can hold at most 2 of the 4
	// private files, so at most 2 tasks can map to one node.
	b := batch.New()
	var tasks []batch.TaskID
	for i := 0; i < 6; i++ {
		f := b.AddFile("", 40*platform.MB, 0)
		tasks = append(tasks, b.AddTask("", 1, []batch.FileID{f}))
	}
	st := state(t, b, 2, 90*platform.MB)
	plan, err := New(4).PlanSubBatch(st, b.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	load := map[int]int64{}
	for _, k := range plan.Tasks {
		load[plan.Node[k]] += b.TaskBytes(k)
	}
	for n, v := range load {
		if v > 90*platform.MB {
			t.Fatalf("node %d staged %d B over its 90 MB disk", n, v)
		}
	}
	_ = tasks
}

// TestVertexWeightAblationChangesNothingStructural checks that the
// Eq. 25-26 expected-time vertex weights still plan a whole
// IMAGE batch as one sub-batch when disk is unlimited. The compute-only
// arm it once compared against is gone; the name is kept for history.
func TestVertexWeightAblationChangesNothingStructural(t *testing.T) {
	b, err := workload.Image(workload.ImageConfig{NumTasks: 40, Overlap: workload.MediumOverlap, NumStorage: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := state(t, b, 3, 0)
	plan, err := New(5).PlanSubBatch(st, b.AllTasks())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tasks) != 40 {
		t.Fatalf("planned %d of 40", len(plan.Tasks))
	}
}

func TestFullRunUnderPressure(t *testing.T) {
	b, err := workload.Image(workload.ImageConfig{NumTasks: 120, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	per := b.TotalUniqueBytes(nil) / 6
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, per)}
	res, err := core.RunWith(p, New(7), core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubBatches < 2 {
		t.Fatalf("expected multiple sub-batches, got %d", res.SubBatches)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
}
