package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
)

// indexTables returns the memo and tentative-copy tables of an
// executor over a one-task sub-batch whose batch has four files, on
// four compute nodes.
func indexTables(t *testing.T) (*core.IndexTables, [4]batch.FileID) {
	t.Helper()
	b := batch.New()
	var fs [4]batch.FileID
	for i := range fs {
		fs[i] = b.AddFile(string(rune('a'+i)), platform.MB, 0)
	}
	task := b.AddTask("t", 1, fs[:])
	p := &core.Problem{Batch: b, Platform: platform.Uniform(4, 1, 0, 10*platform.MB, 20*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := core.NewIndexTables(st, &core.SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return x, fs
}

// TestMemoKeyedByFileAndDest pins the commit-epoch memo's key: one
// file memoized for three destinations in one epoch answers each
// (file, destination) with its own probe only, and a new epoch retires
// all three.
func TestMemoKeyedByFileAndDest(t *testing.T) {
	x, fs := indexTables(t)
	f, g := fs[0], fs[1]
	for dst := range 3 {
		x.Memoize(f, dst, float64(10+dst))
	}
	for dst := range 3 {
		if tct, ok := x.Memoized(f, dst); !ok || tct != float64(10+dst) {
			t.Errorf("(f, %d): got %v, %v; want %v, true", dst, tct, ok, 10+dst)
		}
		if _, ok := x.Memoized(g, dst); ok {
			t.Errorf("(g, %d) hit: only f was memoized", dst)
		}
	}
	if _, ok := x.Memoized(f, 3); ok {
		t.Error("(f, 3) hit: f was memoized for nodes 0-2 only")
	}
	x.BumpEpoch()
	for dst := range 3 {
		if _, ok := x.Memoized(f, dst); ok {
			t.Errorf("(f, %d) hit after an epoch bump", dst)
		}
	}
	x.Memoize(f, 1, 20)
	if tct, ok := x.Memoized(f, 1); !ok || tct != 20 {
		t.Errorf("(f, 1) re-memoized: got %v, %v; want 20, true", tct, ok)
	}
	if _, ok := x.Memoized(f, 0); ok {
		t.Error("(f, 0) hit: its entry is from the previous epoch")
	}
}

// TestIndexStampsWrap pins that the memo epoch and the tentative
// generation survive their integer wrap: after it, neither a file
// stamped long before (at the counter's post-wrap value) nor a file
// never stamped reads the entries filled after the wrap.
func TestIndexStampsWrap(t *testing.T) {
	x, fs := indexTables(t)
	f, g, h := fs[0], fs[1], fs[2]

	x.Memoize(f, 0, 1) // stamped with the first epoch
	x.SetEpoch(math.MaxUint32)
	x.Memoize(h, 1, 3)
	x.BumpEpoch()
	x.Memoize(g, 0, 2) // reuses the pool slot f's and h's entries had
	if tct, ok := x.Memoized(g, 0); !ok || tct != 2 {
		t.Errorf("(g, 0) after the wrap: got %v, %v; want 2, true", tct, ok)
	}
	for _, k := range []struct {
		f   batch.FileID
		dst int
	}{{f, 0}, {h, 1}, {fs[3], 0}} {
		if tct, ok := x.Memoized(k.f, k.dst); ok {
			t.Errorf("(file %d, %d) hit %v after the epoch wrapped", k.f, k.dst, tct)
		}
	}

	x.AddTentative(f, 1, 5) // stamped with the first generation
	x.SetGeneration(math.MaxUint32)
	x.AddTentative(h, 2, 6)
	x.ResetTentative()
	x.AddTentative(g, 3, 7) // reuses the pool list f's copies had
	if got, want := x.Tentative(g), [][2]float64{{3, 7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("g's tentative copies after the wrap: got %v, want %v", got, want)
	}
	for _, k := range []batch.FileID{f, h, fs[3]} {
		if got := x.Tentative(k); got != nil {
			t.Errorf("file %d's tentative copies after the generation wrapped: %v", k, got)
		}
	}
}
