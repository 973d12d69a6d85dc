package batch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestMergeEquivalentFiles(t *testing.T) {
	b := New()
	f0 := b.AddFile("a", 100, 0)
	f1 := b.AddFile("b", 200, 1)
	f2 := b.AddFile("c", 400, 0)
	f3 := b.AddFile("d", 800, 1)
	// f0,f1 both required by exactly {t0}; f2,f3 by {t0,t1}.
	b.AddTask("t0", 1, []FileID{f0, f1, f2, f3})
	b.AddTask("t1", 1, []FileID{f2, f3})
	m, err := MergeEquivalentFiles(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.B.NumFiles() != 2 {
		t.Fatalf("merged files = %d, want 2", m.B.NumFiles())
	}
	sizes := map[int64]bool{}
	for i := range m.B.Files {
		sizes[m.B.Files[i].Size] = true
	}
	if !sizes[300] || !sizes[1200] {
		t.Fatalf("merged sizes wrong: %v", m.B.Files)
	}
	// Expansion restores all original members.
	all := m.Expand([]FileID{0, 1})
	if len(all) != 4 {
		t.Fatalf("expand = %v", all)
	}
}

func TestMergePreservesTaskStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		b := New()
		nf := 10 + rng.Intn(20)
		for f := 0; f < nf; f++ {
			b.AddFile("", int64(1+rng.Intn(100)), rng.Intn(3))
		}
		for k := 0; k < 5+rng.Intn(10); k++ {
			perm := rng.Perm(nf)[:1+rng.Intn(6)]
			fs := make([]FileID, len(perm))
			for i, p := range perm {
				fs[i] = FileID(p)
			}
			b.AddTask("", 1, fs)
		}
		if err := b.Finalize(); err != nil {
			t.Fatal(err)
		}
		m, err := MergeEquivalentFiles(b)
		if err != nil {
			t.Fatal(err)
		}
		// Each task's total input bytes must be preserved.
		for k := 0; k < b.NumTasks(); k++ {
			if b.TaskBytes(TaskID(k)) != m.B.TaskBytes(TaskID(k)) {
				t.Fatalf("trial %d: task %d bytes changed", trial, k)
			}
		}
		// Total bytes preserved.
		if b.TotalUniqueBytes(nil) != m.B.TotalUniqueBytes(nil) {
			t.Fatalf("trial %d: total bytes changed", trial)
		}
	}
}

func TestSubBatch(t *testing.T) {
	b := buildBatch(t)
	sub, taskOrig, fileOrig := SubBatch(b, []TaskID{1, 2})
	if sub.NumTasks() != 2 {
		t.Fatalf("tasks = %d", sub.NumTasks())
	}
	if sub.NumFiles() != 2 { // f1, f2
		t.Fatalf("files = %d", sub.NumFiles())
	}
	if taskOrig[0] != 1 || taskOrig[1] != 2 {
		t.Fatalf("taskOrig = %v", taskOrig)
	}
	for i, of := range fileOrig {
		if sub.Files[i].Size != b.Files[of].Size {
			t.Fatalf("file size mismatch at %d", i)
		}
	}
}

// TestQuickMergeRoundTrip property-tests that merging never loses or
// invents bytes and that every original file lands in exactly one
// class.
func TestQuickMergeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New()
		nf := 5 + rng.Intn(15)
		for f := 0; f < nf; f++ {
			b.AddFile("", int64(1+rng.Intn(50)), 0)
		}
		for k := 0; k < 3+rng.Intn(6); k++ {
			perm := rng.Perm(nf)[:1+rng.Intn(nf)]
			fs := make([]FileID, len(perm))
			for i, p := range perm {
				fs[i] = FileID(p)
			}
			b.AddTask("", 1, fs)
		}
		if err := b.Finalize(); err != nil {
			return false
		}
		m, err := MergeEquivalentFiles(b)
		if err != nil {
			return false
		}
		seen := make([]bool, nf)
		for _, members := range m.Members {
			for _, f := range members {
				if seen[f] {
					return false
				}
				seen[f] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return b.TotalUniqueBytes(nil) == m.B.TotalUniqueBytes(nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
