package eviction

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
)

// setup builds a 2-node cluster with 1000-byte disks and a batch of
// three files (sizes 100/200/300) and three tasks.
func setup(t *testing.T) (*core.State, *batch.Batch) {
	t.Helper()
	b := batch.New()
	f0 := b.AddFile("f0", 100, 0)
	f1 := b.AddFile("f1", 200, 0)
	f2 := b.AddFile("f2", 300, 0)
	b.AddTask("t0", 1, []batch.FileID{f0})
	b.AddTask("t1", 1, []batch.FileID{f1})
	b.AddTask("t2", 1, []batch.FileID{f2})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 1, 1000, 100, 1000)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	return st, b
}

func TestPopularityPrefersUnneededFiles(t *testing.T) {
	st, _ := setup(t)
	// Node 0 holds f0 (needed by pending t0) and f2 (t2 done → freq 0).
	if err := st.AddFile(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(0, 2, 2); err != nil {
		t.Fatal(err)
	}
	st.Done[2] = true
	// Force eviction down to keep=0: everything must go, lowest
	// popularity (f2, freq 0) first.
	PopularityKeep(st, []batch.TaskID{0, 1}, 0)
	if st.Holds(0, 2) {
		t.Error("f2 (unneeded) should be evicted first")
	}
}

func TestPopularityKeepsBudget(t *testing.T) {
	st, _ := setup(t)
	for f := batch.FileID(0); f < 3; f++ {
		if err := st.AddFile(0, f, float64(f)); err != nil {
			t.Fatal(err)
		}
	}
	// keep 50% of 1000 → at most 500 bytes retained.
	PopularityKeep(st, []batch.TaskID{0, 1, 2}, 0.5)
	if st.Used(0) > 500 {
		t.Fatalf("used %d > 500 after eviction", st.Used(0))
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestPopularityGuaranteesRoomForLargestTask(t *testing.T) {
	st, b := setup(t)
	for f := batch.FileID(0); f < 3; f++ {
		if err := st.AddFile(0, f, float64(f)); err != nil {
			t.Fatal(err)
		}
	}
	// Even with keep=1.0 (retain everything) the minimum-free
	// guarantee must carve out space for the largest pending task.
	PopularityKeep(st, b.AllTasks(), 1.0)
	if st.Free(0) < 300 {
		t.Fatalf("free %d < largest task (300)", st.Free(0))
	}
}

func TestLRUEvictsOldestFirst(t *testing.T) {
	st, _ := setup(t)
	if err := st.AddFile(0, 0, 10); err != nil { // f0 used at t=10
		t.Fatal(err)
	}
	if err := st.AddFile(0, 1, 5); err != nil { // f1 used at t=5 (older)
		t.Fatal(err)
	}
	LRUKeep(st, []batch.TaskID{0, 1, 2}, 0.25) // budget 250 → evict until ≤250
	if st.Holds(0, 1) {
		t.Error("older f1 should be evicted before newer f0")
	}
	if !st.Holds(0, 0) {
		t.Error("newer f0 (100 B ≤ 250 budget) should survive")
	}
}

func TestUnlimitedDisksUntouched(t *testing.T) {
	b := batch.New()
	f0 := b.AddFile("f0", 100, 0)
	b.AddTask("t0", 1, []batch.FileID{f0})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(1, 1, 0, 100, 1000)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(0, f0, 1); err != nil {
		t.Fatal(err)
	}
	Popularity(st, b.AllTasks())
	LRU(st, b.AllTasks())
	if !st.Holds(0, f0) {
		t.Fatal("eviction ran on an unlimited disk")
	}
}
