package batch

import (
	"math"
	"testing"
)

func buildBatch(t *testing.T) *Batch {
	t.Helper()
	b := New()
	f0 := b.AddFile("a", 100, 0)
	f1 := b.AddFile("b", 200, 1)
	f2 := b.AddFile("c", 400, 0)
	b.AddTask("t0", 1.5, []FileID{f0, f1})
	b.AddTask("t1", 2.5, []FileID{f1, f2})
	b.AddTask("t2", 0.5, []FileID{f1})
	if err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRequireIndex(t *testing.T) {
	b := buildBatch(t)
	if got := b.Require(1); len(got) != 3 {
		t.Fatalf("Require(f1) = %v", got)
	}
	if got := b.Require(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Require(f0) = %v", got)
	}
}

func TestTaskBytesAndUnique(t *testing.T) {
	b := buildBatch(t)
	if got := b.TaskBytes(0); got != 300 {
		t.Fatalf("TaskBytes(0) = %d", got)
	}
	if got := b.TotalUniqueBytes(nil); got != 700 {
		t.Fatalf("TotalUniqueBytes = %d", got)
	}
	if got := b.TotalUniqueBytes([]TaskID{0, 2}); got != 300 {
		t.Fatalf("TotalUniqueBytes(t0,t2) = %d (f0+f1)", got)
	}
}

func TestStats(t *testing.T) {
	b := buildBatch(t)
	st := b.ComputeStats()
	if st.NumTasks != 3 || st.NumFiles != 3 {
		t.Fatalf("%+v", st)
	}
	if st.MaxSharers != 3 {
		t.Fatalf("max sharers = %d", st.MaxSharers)
	}
	// 5 accesses, 3 unique files → overlap 0.4.
	if st.Overlap < 0.39 || st.Overlap > 0.41 {
		t.Fatalf("overlap = %v", st.Overlap)
	}
}

func TestFinalizeRejects(t *testing.T) {
	b := New()
	f := b.AddFile("a", 100, 0)
	b.AddTask("dup", 1, []FileID{f, f})
	if err := b.Finalize(); err == nil {
		t.Fatal("duplicate file in task not rejected")
	}
	b2 := New()
	b2.AddTask("ghost", 1, []FileID{7})
	if err := b2.Finalize(); err == nil {
		t.Fatal("unknown file not rejected")
	}
	b3 := New()
	b3.AddFile("z", 0, 0) // zero size
	if err := b3.Finalize(); err == nil {
		t.Fatal("zero-size file not rejected")
	}
	b5 := New()
	big0 := b5.AddFile("big0", 1<<62, 0)
	big1 := b5.AddFile("big1", 1<<62, 0)
	b5.AddTask("huge", 1, []FileID{big0, big1})
	if err := b5.Finalize(); err == nil {
		t.Fatal("task input bytes overflowing int64 not rejected")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1)} {
		b4 := New()
		f := b4.AddFile("a", 100, 0)
		b4.AddTask("t", c, []FileID{f})
		if err := b4.Finalize(); err == nil {
			t.Fatalf("compute time %v not rejected", c)
		}
	}
}
