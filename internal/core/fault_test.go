package core_test

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/workload"
)

// sameFaultResult compares every deterministic Result field (all but
// the wall-clock SchedulingTime).
func sameFaultResult(t *testing.T, a, b *core.Result) {
	t.Helper()
	ca, cb := *a, *b
	ca.SchedulingTime, cb.SchedulingTime = 0, 0
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("results differ:\n  a: %+v\n  b: %+v", ca, cb)
	}
}

// TestChaosDeterministicAcrossRuns is the acceptance property: the
// same FaultPlan seed produces an identical recovery outcome — every
// counter, the makespan, and the Complete/Degraded status — on every
// run, for every scheduler, with the schedule validator on.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	p := smallProblem(t, 0)
	plan := &faults.FaultPlan{Seed: 17, NodeMTTF: 30_000, LinkFailProb: 0.25, StragglerProb: 0.2, StragglerFactor: 3}
	for _, s := range schedulers() {
		a, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		sameFaultResult(t, a, b)
		if a.TransferFailures == 0 {
			t.Errorf("%s: chaos run injected no transfer failures", s.Name())
		}
	}
}

// TestChaosRecoversThroughReplicas drives a flaky-link scenario and
// checks the recovery machinery engaged: failures happened, retries
// were scheduled, wasted port time was accounted, and the run still
// completed every task with a valid schedule.
func TestChaosRecoversThroughRetries(t *testing.T) {
	p := smallProblem(t, 0)
	plan := &faults.FaultPlan{Seed: 5, LinkFailProb: 0.35}
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Status != core.StatusComplete {
			t.Fatalf("%s: status %s (degraded %d tasks) under recoverable faults", s.Name(), res.Status, res.DegradedTasks)
		}
		if res.TransferFailures == 0 || res.TransferRetries == 0 {
			t.Errorf("%s: failures=%d retries=%d, want both > 0", s.Name(), res.TransferFailures, res.TransferRetries)
		}
		if res.WastedSeconds <= 0 {
			t.Errorf("%s: no wasted seconds recorded despite %d failures", s.Name(), res.TransferFailures)
		}
		// Fault-free control under the same options machinery.
		clean, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s clean: %v", s.Name(), err)
		}
		if res.Makespan <= clean.Makespan {
			t.Errorf("%s: chaos makespan %g not above fault-free %g", s.Name(), res.Makespan, clean.Makespan)
		}
		if clean.TransferFailures != 0 || clean.Crashes != 0 || clean.WastedSeconds != 0 {
			t.Errorf("%s: fault-free run reported fault activity: %+v", s.Name(), clean)
		}
	}
}

// TestChaosCrashRecovery forces node crashes within the batch and
// checks tasks are re-queued through the resume path and still all
// complete (losing a node mid-batch costs time, not tasks).
func TestChaosCrashRecovery(t *testing.T) {
	p := smallProblem(t, 0)
	s := schedulers()[0]
	base, err := core.RunWith(p, s, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// MTTF well inside the fault-free makespan so at least one of the
	// three nodes crashes mid-batch.
	plan := &faults.FaultPlan{Seed: 2, NodeMTTF: base.Makespan / 2, TaskRetryBudget: 50}
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatalf("no crash observed with MTTF %g against makespan %g", plan.NodeMTTF, res.Makespan)
	}
	if res.Status != core.StatusComplete {
		t.Fatalf("status %s with a generous retry budget", res.Status)
	}
	if res.RequeuedTasks == 0 {
		t.Error("crashes observed but no task was re-queued")
	}
	if res.SubBatches < 2 {
		t.Errorf("re-queued tasks must add sub-batches, got %d", res.SubBatches)
	}
}

// TestChaosDegradesWhenUnrecoverable: with every transfer attempt
// failing, no task can ever stage its inputs; the run must terminate
// (bounded by the per-task budget) with every task abandoned.
func TestChaosDegradesWhenUnrecoverable(t *testing.T) {
	p := smallProblem(t, 0)
	s := schedulers()[0]
	plan := &faults.FaultPlan{Seed: 1, LinkFailProb: 1, TaskRetryBudget: 2}
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.StatusDegraded {
		t.Fatalf("status %s, want Degraded", res.Status)
	}
	if res.DegradedTasks != res.TaskCount {
		t.Fatalf("degraded %d of %d tasks; with LinkFailProb 1 none can run", res.DegradedTasks, res.TaskCount)
	}
	if res.RemoteTransfers != 0 || res.ReplicaTransfers != 0 {
		t.Fatalf("transfers succeeded under LinkFailProb 1: %+v", res)
	}
	// Budget 2 ⇒ initial round + 2 retries per task.
	if res.SubBatches != 3 {
		t.Errorf("sub-batches %d, want 3 (1 + budget 2)", res.SubBatches)
	}
}

// TestRunFromSkipsDoneAndDuplicates covers the resume-path contract
// recovery depends on: a pending list containing duplicates and
// already-completed task IDs must execute each remaining task exactly
// once.
func TestRunFromSkipsDoneAndDuplicates(t *testing.T) {
	p := smallProblem(t, 0)
	s := schedulers()[0]
	all := p.Batch.AllTasks()

	stClean, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	stDirty, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend the first three tasks already ran.
	done := all[:3]
	rest := all[3:]
	for _, st := range []*core.State{stClean, stDirty} {
		for _, d := range done {
			st.Done[d] = true
		}
	}
	dirty := make([]batch.TaskID, 0, 2*len(all))
	dirty = append(dirty, all...)  // includes the 3 done tasks
	dirty = append(dirty, rest...) // and every remaining task twice
	got, err := core.RunFrom(stDirty, s, dirty, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunFrom(stClean, s, rest, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskCount != len(rest) {
		t.Fatalf("TaskCount %d, want %d (done and duplicate IDs skipped)", got.TaskCount, len(rest))
	}
	sameFaultResult(t, got, want)
}

// TestResultJSONRoundTrip pins that every Result field — including
// the fault/recovery counters and the status — survives JSON
// marshalling, so persisted chaos reports are lossless, and that the
// embedded ExecStats keeps the report one flat object.
func TestResultJSONRoundTrip(t *testing.T) {
	in := &core.Result{
		Scheduler:      "test",
		Status:         core.StatusDegraded,
		SchedulingTime: 1500 * time.Microsecond,
		SubBatches:     3,
		TaskCount:      24,
		Evictions:      2,
		DegradedTasks:  1,
		ExecStats: core.ExecStats{
			Makespan:         123.5,
			TasksRun:         23,
			RemoteTransfers:  7,
			RemoteBytes:      1 << 30,
			ReplicaTransfers: 5,
			ReplicaBytes:     1 << 20,
			StorageBusy:      55.25,
			ComputeBusy:      99.75,
			TransferFailures: 4, TransferRetries: 3, ReplicaRecoveries: 2,
			Crashes: 1, Stragglers: 6, RequeuedTasks: 2,
			WastedSeconds: 12.125,
			SpecLaunches:  5, SpecWins: 3, SpecCancels: 5, SpecSaved: 1,
			SpecWastedSeconds: 7.25,
			Probes:            40, ProbeReuses: 30, ECTReevals: 9,
		},
	}
	// Every field set, promoted ones included: catch future additions
	// that forget this test.
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Anonymous {
				walk(v.Field(i))
				continue
			}
			if v.Field(i).IsZero() {
				t.Fatalf("field %s left at zero value; set it so the round trip is meaningful", f.Name)
			}
		}
	}
	walk(reflect.ValueOf(*in))
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Flat, with exactly the keys Result had before it embedded
	// ExecStats plus TasksRun and the source-search counters.
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	want := []string{"Scheduler", "Status", "Makespan", "SchedulingTime", "SubBatches", "TaskCount",
		"RemoteTransfers", "RemoteBytes", "ReplicaTransfers", "ReplicaBytes", "Evictions",
		"StorageBusy", "ComputeBusy", "TransferFailures", "TransferRetries", "ReplicaRecoveries",
		"Crashes", "Stragglers", "RequeuedTasks", "DegradedTasks", "WastedSeconds",
		"SpecLaunches", "SpecWins", "SpecCancels", "SpecSaved", "SpecWastedSeconds",
		"TasksRun", "Probes", "ProbeReuses", "ECTReevals"}
	sort.Strings(want)
	got := make([]string, 0, len(flat))
	for k := range flat {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON keys changed:\n got: %v\nwant: %v", got, want)
	}
	out := &core.Result{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip lost data:\n in: %+v\nout: %+v", in, out)
	}
}

// TestExecStatsAddCommutative: chaos-matrix cells are aggregated in
// whatever order workers finish, so the merge must commute.
func TestExecStatsAddCommutative(t *testing.T) {
	a := core.ExecStats{Makespan: 1, TasksRun: 2, RemoteTransfers: 3, RemoteBytes: 4,
		ReplicaTransfers: 5, ReplicaBytes: 6, StorageBusy: 7, ComputeBusy: 8,
		TransferFailures: 9, TransferRetries: 10, ReplicaRecoveries: 11,
		Crashes: 12, Stragglers: 13, RequeuedTasks: 14, WastedSeconds: 15,
		SpecLaunches: 16, SpecWins: 17, SpecCancels: 18, SpecSaved: 19,
		SpecWastedSeconds: 20, Probes: 21, ProbeReuses: 22, ECTReevals: 23}
	b := core.ExecStats{Makespan: 100, TasksRun: 200, RemoteTransfers: 300, RemoteBytes: 400,
		ReplicaTransfers: 500, ReplicaBytes: 600, StorageBusy: 700, ComputeBusy: 800,
		TransferFailures: 900, TransferRetries: 1000, ReplicaRecoveries: 1100,
		Crashes: 1200, Stragglers: 1300, RequeuedTasks: 1400, WastedSeconds: 1500,
		SpecLaunches: 1600, SpecWins: 1700, SpecCancels: 1800, SpecSaved: 1900,
		SpecWastedSeconds: 2000, Probes: 2100, ProbeReuses: 2200, ECTReevals: 2300}
	ab, ba := a, b
	ab.Add(&b)
	ba.Add(&a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("Add not commutative:\na+b: %+v\nb+a: %+v", ab, ba)
	}
	// No field may be forgotten by Add: summing a with itself must
	// double every non-zero field.
	aa := a
	aa.Add(&a)
	va, vaa := reflect.ValueOf(a), reflect.ValueOf(aa)
	for i := 0; i < va.NumField(); i++ {
		got := vaa.Field(i).Convert(reflect.TypeOf(float64(0))).Float()
		want := 2 * va.Field(i).Convert(reflect.TypeOf(float64(0))).Float()
		if got != want {
			t.Errorf("Add drops field %s: got %g want %g", va.Type().Field(i).Name, got, want)
		}
	}
}

// FuzzFaultPlan: any valid scenario, however hostile, must terminate,
// never violate the gantt schedule invariants, and reproduce the
// identical result when run twice.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), 1000.0, 0.1, 0.1, 2.0, 3, 2)
	f.Add(int64(7), 0.0, 1.0, 0.0, 1.0, 1, 0)
	f.Add(int64(42), 50.0, 0.5, 0.9, 8.0, 2, 1)
	b, err := workload.Sat(workload.SatConfig{NumTasks: 8, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 9})
	if err != nil {
		f.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(2, 2, 0)}
	if err := p.Validate(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, mttf, linkp, stragp, stragf float64, retries, budget int) {
		// Fold arbitrary floats into the model's sensible ranges; NaN
		// and Inf stay non-finite and are rejected by Validate below.
		mttf = math.Mod(math.Abs(mttf), 1e6)
		linkp = math.Mod(math.Abs(linkp), 0.96) // a sliver of progress stays possible
		stragp = math.Mod(math.Abs(stragp), 1)
		stragf = 1 + math.Mod(math.Abs(stragf), 8)
		plan := &faults.FaultPlan{Seed: seed, NodeMTTF: mttf, LinkFailProb: linkp,
			StragglerProb: stragp, StragglerFactor: stragf,
			MaxTransferRetries: retries%8 + 1, TaskRetryBudget: budget % 16}
		if plan.Validate() != nil {
			t.Skip()
		}
		// The canonical spec string must reproduce the plan: Parse ∘
		// Spec is the identity for enabled plans and nil (same
		// behavior) for disabled ones.
		rt, err := faults.Parse(plan.Spec())
		if err != nil {
			t.Fatalf("Parse rejected Spec() output %q: %v", plan.Spec(), err)
		}
		if plan.Enabled() {
			if !reflect.DeepEqual(plan, rt) {
				t.Fatalf("Spec round-trip changed the plan:\n  in  %#v\n  out %#v", plan, rt)
			}
		} else if rt != nil {
			t.Fatalf("disabled plan round-tripped to non-nil %#v", rt)
		}
		s := schedulers()[0]
		a, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
		if err != nil {
			t.Fatalf("chaos run failed: %v (plan %s)", err, plan)
		}
		b, err := core.RunWith(p, s, core.RunOptions{Checked: true, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		sameFaultResult(t, a, b)
	})
}
