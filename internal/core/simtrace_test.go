package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// faultSpanSeconds runs p under opt with a sim-only tracer attached
// and returns the result plus the summed length, in seconds, of the
// exported trace's "fault" spans.
func faultSpanSeconds(t *testing.T, p *core.Problem, s core.Scheduler, opt core.RunOptions) (*core.Result, float64) {
	t.Helper()
	tr := obs.NewSimOnly()
	opt.Obs.Trace = tr
	res, err := core.RunWith(p, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, ev := range out.TraceEvents {
		if ev.Cat == "fault" && ev.Phase == "X" {
			sum += ev.Dur / 1e6
		}
	}
	return res, sum
}

// TestSimTraceAccountsForWaste pins that the simulated-time trace
// draws every burned reservation: the fault spans add up to the port
// time the run reports as wasted, including the twin execution window
// of a task whose primary and speculative attempts both crash.
func TestSimTraceAccountsForWaste(t *testing.T) {
	check := func(name string, res *core.Result, drawn float64) {
		t.Helper()
		want := res.WastedSeconds + res.SpecWastedSeconds
		if math.Abs(drawn-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: fault spans cover %.6gs, run wasted %.6gs (%.6g + %.6g spec)",
				name, drawn, want, res.WastedSeconds, res.SpecWastedSeconds)
		}
	}
	pol := &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}
	p := specProblem(t)
	specWasted := 0.0
	for seed := int64(1); seed <= 60; seed++ {
		res, drawn := faultSpanSeconds(t, p, minmin.New(), core.RunOptions{Faults: specPlan(t, seed), Spec: pol})
		check(fmt.Sprintf("spec seed %d", seed), res, drawn)
		specWasted += res.SpecWastedSeconds
	}
	if specWasted == 0 {
		t.Fatal("spec grid cancelled no attempts")
	}

	// The chaos matrix's harsh rows: compute-heavy IMAGE tasks, so the
	// preset's crashes land inside the batch.
	b, err := workload.Image(workload.ImageConfig{NumTasks: 12, Overlap: workload.HighOverlap, NumStorage: 2,
		Seed: 3, ComputeFactor: 4000 * platform.PaperComputeFactor})
	if err != nil {
		t.Fatal(err)
	}
	hp := &core.Problem{Batch: b, Platform: platform.XIO(4, 2, 0)}
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	ip := ipsched.New(1)
	ip.NodeBudget = 100000 // every solve runs to optimality
	harshWasted := 0.0
	for _, s := range []core.Scheduler{minmin.New(), jdp.New(), bipart.New(1), ip} {
		fp, err := faults.Parse("harsh,seed=5")
		if err != nil {
			t.Fatal(err)
		}
		res, drawn := faultSpanSeconds(t, hp, s, core.RunOptions{Faults: fp, Spec: pol})
		check("harsh "+s.Name(), res, drawn)
		harshWasted += res.WastedSeconds
	}
	if harshWasted == 0 {
		t.Fatal("harsh plan burned no port time")
	}
}
