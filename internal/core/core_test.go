package core_test

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

func schedulers() []core.Scheduler {
	return []core.Scheduler{minmin.New(), jdp.New(), bipart.New(1)}
}

func smallProblem(t *testing.T, diskSpace int64) *core.Problem {
	t.Helper()
	b, err := workload.Sat(workload.SatConfig{NumTasks: 24, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, diskSpace)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunUnlimitedDisk(t *testing.T) {
	p := smallProblem(t, 0)
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan %v", s.Name(), res.Makespan)
		}
		if res.SubBatches != 1 {
			t.Errorf("%s: expected a single sub-batch with unlimited disk, got %d", s.Name(), res.SubBatches)
		}
		if res.TaskCount != 24 {
			t.Errorf("%s: task count %d", s.Name(), res.TaskCount)
		}
		if res.RemoteTransfers == 0 {
			t.Errorf("%s: no remote transfers recorded", s.Name())
		}
	}
}

// limitedDiskProblem gives each of 3 nodes a disk that cannot hold the
// whole working set at once: together they hold half of it.
func limitedDiskProblem(t *testing.T) *core.Problem {
	t.Helper()
	b, err := workload.Sat(workload.SatConfig{NumTasks: 30, Overlap: workload.LowOverlap, NumStorage: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, b.TotalUniqueBytes(nil)/6)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunLimitedDiskForcesSubBatches(t *testing.T) {
	p := limitedDiskProblem(t)
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.SubBatches < 2 {
			t.Errorf("%s: expected multiple sub-batches, got %d", s.Name(), res.SubBatches)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan", s.Name())
		}
	}
}

// TestRunFromReportsOwnEvictions chains two runs over one warm State:
// each Result must count only the evictions its own run made, so the
// two add up to the State's lifetime total.
func TestRunFromReportsOwnEvictions(t *testing.T) {
	p := limitedDiskProblem(t)
	all := p.Batch.AllTasks()
	for _, s := range schedulers() {
		st, err := core.NewState(p)
		if err != nil {
			t.Fatal(err)
		}
		first, err := core.RunFrom(st, s, all[:len(all)/2], core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s first half: %v", s.Name(), err)
		}
		second, err := core.RunFrom(st, s, all[len(all)/2:], core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s second half: %v", s.Name(), err)
		}
		if first.Evictions == 0 {
			t.Fatalf("%s: the first half evicted nothing; the disk limit does not bind", s.Name())
		}
		if got := first.Evictions + second.Evictions; got != st.Evictions {
			t.Errorf("%s: first %d + second %d evictions = %d, state counted %d",
				s.Name(), first.Evictions, second.Evictions, got, st.Evictions)
		}
	}
}

func TestRunDisableReplication(t *testing.T) {
	p := smallProblem(t, 0)
	p.DisableReplication = true
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.ReplicaTransfers != 0 {
			t.Errorf("%s: %d replica transfers despite DisableReplication", s.Name(), res.ReplicaTransfers)
		}
	}
}

func TestReplicationReducesMakespanOnSlowStorage(t *testing.T) {
	// On an OSUMED-like platform (slow shared storage link) replication
	// must help a high-overlap workload — the paper's Figure 5(a).
	// More compute nodes than hot-spot groups, as in the paper's 8-node
	// experiment, so tasks sharing files necessarily span nodes.
	b, err := workload.Image(workload.ImageConfig{NumTasks: 48, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.OSUMED(8, 2, 0)
	with := &core.Problem{Batch: b, Platform: pf}
	without := &core.Problem{Batch: b, Platform: pf, DisableReplication: true}
	s := bipart.New(5)
	rw, err := core.RunWith(with, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	rwo, err := core.RunWith(without, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Makespan >= rwo.Makespan {
		t.Errorf("replication did not help: with=%v without=%v", rw.Makespan, rwo.Makespan)
	}
}

func TestStateAccounting(t *testing.T) {
	b := batch.New()
	f1 := b.AddFile("f1", 100, 0)
	f2 := b.AddFile("f2", 200, 0)
	b.AddTask("t", 1, []batch.FileID{f1, f2})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 1, 1000, 10, 100)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(0, f1, 1); err != nil {
		t.Fatal(err)
	}
	if !st.Holds(0, f1) || st.Holds(1, f1) {
		t.Fatal("holds wrong")
	}
	if st.Used(0) != 100 || st.Free(0) != 900 {
		t.Fatalf("used=%d free=%d", st.Used(0), st.Free(0))
	}
	if st.NumCopies(f1) != 1 || st.NumCopies(f2) != 0 {
		t.Fatal("copy counts wrong")
	}
	st.Evict(0, f1)
	if st.Holds(0, f1) || st.Used(0) != 0 || st.Evictions != 1 {
		t.Fatal("eviction accounting wrong")
	}
	if st.AccessFreq(f1) != 1 {
		t.Fatalf("access freq %d", st.AccessFreq(f1))
	}
	st.Done[0] = true
	if st.AccessFreq(f1) != 0 {
		t.Fatalf("access freq after done %d", st.AccessFreq(f1))
	}
}

func TestValidateRejectsTooSmallDisk(t *testing.T) {
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	b.AddTask("t", 1, []batch.FileID{f})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(1, 1, 5*platform.MB, 10*platform.MB, 100*platform.MB)}
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error: node disk smaller than a task's working set")
	}
}

// A task whose input bytes overflow int64 must be rejected by
// validation. Unchecked, the sum wraps negative, slips past the disk
// check, and every scheduler panics in the gantt layer on a negative
// transfer duration.
func TestRunRejectsOverflowingTaskBytes(t *testing.T) {
	for _, s := range schedulers() {
		t.Run(s.Name(), func(t *testing.T) {
			b := batch.New()
			f0 := b.AddFile("a", 1<<62, 0)
			f1 := b.AddFile("b", 1<<62, 0)
			b.AddTask("t", 1, []batch.FileID{f0, f1})
			p := &core.Problem{Batch: b, Platform: platform.XIO(2, 1, 1<<40)}
			if _, err := core.RunWith(p, s, core.RunOptions{Checked: true}); err == nil {
				t.Fatal("RunWith accepted a task whose input bytes overflow int64")
			}
		})
	}
}
