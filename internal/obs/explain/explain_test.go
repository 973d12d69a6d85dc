package explain_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs/explain"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// recoveryJournal runs a seeded crash-recovery scenario (the same
// shape as the recorded crash_recovery fixture: mid-batch crash,
// empty reboot, replica re-staging) with a journal attached and
// returns both.
func recoveryJournal(t *testing.T, s core.Scheduler) (*explain.Journal, *core.Result) {
	t.Helper()
	b, err := workload.Sat(workload.SatConfig{NumTasks: 24, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, 0)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	base, err := core.RunWith(p, s, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.New()
	res, err := core.RunWith(p, s, core.RunOptions{
		Checked: true,
		Faults:  &faults.FaultPlan{Seed: 2, NodeMTTF: base.Makespan / 2, LinkFailProb: 0.2, TaskRetryBudget: 50},
		Obs:     core.Observer{Journal: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.TransferFailures == 0 {
		t.Fatalf("scenario injected no faults (crashes %d, failures %d)", res.Crashes, res.TransferFailures)
	}
	return explain.FromEvents(rec.Events()), res
}

// TestPlacementAnswersEveryTask is the acceptance criterion: the
// placement query must produce a decision record — with at least one
// placement and, for completed tasks, an execution — for every task
// of the crash-recovery run.
func TestPlacementAnswersEveryTask(t *testing.T) {
	j, res := recoveryJournal(t, minmin.New())
	tasks := j.Tasks()
	if len(tasks) != res.TaskCount {
		t.Fatalf("journal mentions %d tasks, run had %d", len(tasks), res.TaskCount)
	}
	for _, task := range tasks {
		p := j.Placement(task)
		if p == nil {
			t.Fatalf("task %d: no placement record", task)
		}
		if len(p.Places) == 0 {
			t.Errorf("task %d: no placement decisions", task)
		}
		for _, ev := range p.Places {
			if ev.Place.Policy == "" || ev.Place.Reason == "" {
				t.Errorf("task %d: placement missing policy/reason: %+v", task, ev.Place)
			}
		}
		if res.Status == core.StatusComplete && len(p.Execs) == 0 {
			t.Errorf("task %d: complete run but no execution recorded", task)
		}
		if txt := p.Text(); txt == "" {
			t.Errorf("task %d: empty text rendering", task)
		}
	}
}

// TestFileHistoryAnswersReplicationAndEviction checks the file query
// over a run with daemon replication (JDP) and LRU eviction under
// limited disk.
func TestFileHistoryAnswersReplicationAndEviction(t *testing.T) {
	b, err := workload.Sat(workload.SatConfig{NumTasks: 30, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := b.TotalUniqueBytes(nil)
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, total/4)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := journal.New()
	if _, err := core.RunWith(p, jdp.New(), core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}}); err != nil {
		t.Fatal(err)
	}
	j := explain.FromEvents(rec.Events())
	var sawEvict, sawReplicate bool
	for _, f := range j.Files() {
		h := j.FileHistory(f, -1)
		if h == nil {
			t.Fatalf("file %d listed but has no history", f)
		}
		for _, ev := range h.Events {
			if ev.Evict != nil {
				sawEvict = true
				// The per-node query must find the same eviction.
				hn := j.FileHistory(f, ev.Evict.Node)
				if hn == nil {
					t.Fatalf("file %d: node-scoped history lost the eviction on node %d", f, ev.Evict.Node)
				}
			}
			if ev.Replicate != nil {
				sawReplicate = true
			}
		}
		if txt := h.Text(); txt == "" {
			t.Errorf("file %d: empty text rendering", f)
		}
	}
	if !sawEvict {
		t.Error("limited-disk run journaled no evictions")
	}
	if !sawReplicate {
		t.Error("JDP run journaled no daemon replication decisions")
	}
}

// TestCriticalPath checks the walk-back: the chain must end at the
// makespan, be chronologically ordered, contiguous, and start with a
// step that has no binding predecessor.
func TestCriticalPath(t *testing.T) {
	j, res := recoveryJournal(t, minmin.New())
	cp := j.CriticalPath()
	if cp == nil || len(cp.Steps) == 0 {
		t.Fatal("no critical path")
	}
	if math.Abs(cp.Makespan-res.Makespan) > 1e-6 {
		t.Fatalf("critical path makespan %g, run makespan %g", cp.Makespan, res.Makespan)
	}
	endOf := func(s explain.PathStep) float64 {
		if s.Event.Exec != nil {
			return s.Event.Exec.End
		}
		return s.Event.Stage.End
	}
	startOf := func(s explain.PathStep) float64 {
		if s.Event.Exec != nil {
			return s.Event.Exec.Start
		}
		return s.Event.Stage.Start
	}
	last := cp.Steps[len(cp.Steps)-1]
	if math.Abs(endOf(last)-cp.Makespan) > 1e-6 {
		t.Fatalf("last step ends at %g, not the makespan %g", endOf(last), cp.Makespan)
	}
	if cp.Steps[0].Why != "" {
		t.Errorf("first step carries a predecessor rationale: %q", cp.Steps[0].Why)
	}
	for i := 1; i < len(cp.Steps); i++ {
		if cp.Steps[i].Why == "" {
			t.Errorf("step %d has no binding rationale", i)
		}
		if gap := startOf(cp.Steps[i]) - endOf(cp.Steps[i-1]); math.Abs(gap) > 1e-6 {
			t.Errorf("step %d not contiguous with predecessor (gap %g)", i, gap)
		}
	}
	if txt := cp.Text(); txt == "" {
		t.Error("empty text rendering")
	}
}

// TestPlacementListsBurnWindows checks that -task lists the port time a
// task's killed attempts burned: in a speculated run whose primary and
// twin both crash (two compute-heavy nodes, crashy fault plan seed 7),
// the task's record shows a burn window on each attempt's node.
func TestPlacementListsBurnWindows(t *testing.T) {
	b := batch.New()
	var files []batch.FileID
	for i := 0; i < 4; i++ {
		files = append(files, b.AddFile(fmt.Sprintf("f%d", i), 64<<20, i%2))
	}
	for i := 0; i < 8; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 10, []batch.FileID{files[i%4]})
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(2, 2, 0)}
	fp, err := faults.Parse("mttf=30,stragp=0.15,stragf=4,budget=8,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	rec := journal.New()
	if _, err := core.RunWith(p, minmin.New(), core.RunOptions{Faults: fp,
		Spec: &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}, Obs: core.Observer{Journal: rec}}); err != nil {
		t.Fatal(err)
	}
	j := explain.FromEvents(rec.Events())
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind != journal.KindSpecCancel || ev.Spec.Winner != "none" {
			continue
		}
		found = true
		sp := ev.Spec
		txt := j.Placement(sp.Task).Text()
		for _, node := range []int{sp.Node, sp.Twin} {
			want := fmt.Sprintf("burn, node %d, task %d, burned [", node, sp.Task)
			if !strings.Contains(txt, want) {
				t.Errorf("task %d: record lacks %q:\n%s", sp.Task, want, txt)
			}
		}
	}
	if !found {
		t.Fatal("seed 7 produced no task whose primary and twin both died")
	}
}
