package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

var updateTraces = flag.Bool("update", false, "rewrite the golden trace files under testdata/traces")

// traceProblem is the same 6-task workload the determinism tests pin:
// small enough that the IP portfolio exhausts its search inside the
// budget, so every scheduler's simulated timeline is a pure function
// of the seed.
func traceProblem(t *testing.T) *core.Problem {
	t.Helper()
	b, err := workload.Image(workload.ImageConfig{
		NumTasks: 6, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.OSUMED(2, 2, 0)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// traceSchedulers instantiates the four schemes. A run's tracer
// reaches the planners through the run itself, so none is attached
// here.
func traceSchedulers() []struct {
	name  string
	sched core.Scheduler
} {
	ip := ipsched.New(7)
	ip.NodeBudget = 100000 // every solve runs to optimality
	ip.Workers = 4
	bp := bipart.New(7)
	bp.Workers = 4
	return []struct {
		name  string
		sched core.Scheduler
	}{
		{"ip", ip},
		{"bipartition", bp},
		{"minmin", minmin.New()},
		{"jobdatapresent", jdp.New()},
	}
}

// TestTraceGolden pins the sim-domain Chrome trace of each scheduler
// on the 6-task workload byte-for-byte. Sim events carry simulated
// timestamps only, and the export sorts canonically, so the golden
// bytes are independent of machine speed and worker count.
// Regenerate with: go test -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	for _, s := range traceSchedulers() {
		tr := obs.NewSimOnly()
		if _, err := core.RunWith(traceProblem(t), s.sched, core.RunOptions{Obs: core.Observer{Trace: tr}}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("%s: export: %v", s.name, err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("%s: export is not valid JSON", s.name)
		}
		golden := filepath.Join("testdata", "traces", s.name+".trace.json")
		if *updateTraces {
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update): %v", s.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: trace differs from %s (regenerate with -update if the change is intended)", s.name, golden)
		}
	}
}

// TestTracerReachesPlanners checks that a tracer given only through
// RunOptions reaches the planners: BiPartition's partitioner records
// its bisections, and IP its solves and their portfolio dives (IP's
// warm start runs the same partitioner).
func TestTracerReachesPlanners(t *testing.T) {
	want := map[string][]string{
		"bipartition": {"plan", "multilevel bisect"},
		"ip":          {"plan", "allocation IP", "b&b dive", "multilevel bisect"},
	}
	for _, s := range traceSchedulers() {
		names, ok := want[s.name]
		if !ok {
			continue
		}
		tr := obs.New()
		if _, err := core.RunWith(traceProblem(t), s.sched, core.RunOptions{Obs: core.Observer{Trace: tr}}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		spans := map[string]int{}
		for _, ev := range out.TraceEvents {
			if ev["pid"] == float64(obs.DomainReal) && ev["ph"] == "X" {
				spans[ev["name"].(string)]++
			}
		}
		for _, name := range names {
			if spans[name] == 0 {
				t.Errorf("%s: no real-time %q span; recorded spans: %v", s.name, name, spans)
			}
		}
	}
}

// simEvents returns the simulated-time process's (pid 2) events of a
// Chrome trace export.
func simEvents(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, ev := range tr.TraceEvents {
		if ev["pid"] == float64(obs.DomainSim) {
			out = append(out, ev)
		}
	}
	return out
}

// TestTraceFromJournalFile pins that a run's JSONL journal alone is
// enough to rebuild its simulated-time trace: the journal goes through
// WriteJSONL and ReadJSONL, and TraceJournal over the parsed events
// must reproduce the golden trace's sim-process events.
func TestTraceFromJournalFile(t *testing.T) {
	for _, s := range traceSchedulers() {
		rec := journal.New()
		p := traceProblem(t)
		if _, err := core.RunWith(p, s.sched, core.RunOptions{Obs: core.Observer{Journal: rec}}); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var jsonl bytes.Buffer
		if err := rec.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		evs, err := journal.ReadJSONL(&jsonl)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewSimOnly()
		core.TraceJournal(tr, p.Platform, evs)
		var got bytes.Buffer
		if err := tr.WriteChrome(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "traces", s.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := simEvents(t, got.Bytes()), simEvents(t, want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: trace rebuilt from the JSONL journal differs from the golden sim events (%d vs %d events)",
				s.name, len(g), len(w))
		}
	}
}

// TestObservedRunIdenticalToPlain is the determinism-preservation gate
// of the observability layer: a fully instrumented run (tracer +
// metrics on every hook) must produce the same Result as a plain one.
// Observation is write-only by construction; this test keeps it so.
func TestObservedRunIdenticalToPlain(t *testing.T) {
	observed := traceSchedulers()
	for i, plain := range traceSchedulers() {
		res0, err := core.RunWith(traceProblem(t), plain.sched, core.RunOptions{})
		if err != nil {
			t.Fatalf("%s: plain: %v", plain.name, err)
		}
		met := obs.NewMetrics()
		res1, err := core.RunWith(traceProblem(t), observed[i].sched, core.RunOptions{Obs: core.Observer{Trace: obs.New(), Metrics: met}})
		if err != nil {
			t.Fatalf("%s: observed: %v", plain.name, err)
		}
		sameResult(t, plain.name, res0, res1)
		if met.Snapshot().Counters["core.tasks"] != int64(res1.TaskCount) {
			t.Errorf("%s: metrics saw %d tasks, result has %d", plain.name,
				met.Snapshot().Counters["core.tasks"], res1.TaskCount)
		}
	}
}
