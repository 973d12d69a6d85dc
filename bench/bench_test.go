package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"repro/internal/obs/journal"
)

// small returns every workload at a size that runs in well under a
// second: 100 tasks, one batch.
func small() []workloadDef {
	ws := append([]workloadDef(nil), workloads...)
	for i := range ws {
		ws[i].tasks, ws[i].batches = 100, 1
	}
	return ws
}

// runJournaled runs one batch with a journal attached and returns the
// result with its wall-clock field cleared, plus the journal bytes.
func runJournaled(t *testing.T, in *instance, traced bool) (*runOutcome, []byte) {
	t.Helper()
	j := journal.New()
	jin := *in
	jin.opt.Obs.Journal = j
	o := runOnce(&jin, traced, false)
	if o.err != nil {
		t.Fatal(o.err)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	o.res.SchedulingTime = 0
	return &o, buf.Bytes()
}

func TestWrapperIsTransparent(t *testing.T) {
	for _, w := range small() {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.build(5, w.tasks)
			if err != nil {
				t.Fatal(err)
			}
			plain, plainJ := runJournaled(t, in, false)
			wrapped, wrappedJ := runJournaled(t, in, true)
			if !reflect.DeepEqual(plain.res, wrapped.res) {
				t.Errorf("results differ:\nplain   %+v\nwrapped %+v", plain.res, wrapped.res)
			}
			if len(plainJ) == 0 || !bytes.Equal(plainJ, wrappedJ) {
				t.Errorf("journals differ (%d vs %d bytes)", len(plainJ), len(wrappedJ))
			}
			l := wrapped.lt
			if sum := l.plan + l.evict + l.exec; sum > wrapped.wall {
				t.Errorf("layer times sum to %v, more than the run's wall time %v", sum, wrapped.wall)
			}
			if len(l.planDur) != wrapped.res.SubBatches || l.evictCalls != wrapped.res.SubBatches-1 {
				t.Errorf("%d plan and %d evict calls for %d sub-batches", len(l.planDur), l.evictCalls, wrapped.res.SubBatches)
			}
			if l.evictFiles != wrapped.res.Evictions {
				t.Errorf("timer counted %d evicted copies, the run %d", l.evictFiles, wrapped.res.Evictions)
			}
		})
	}
}

func TestBuildersDeterministicPerSeed(t *testing.T) {
	for _, w := range small() {
		a, err := w.build(7, w.tasks)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.build(7, w.tasks)
		c, _ := w.build(8, w.tasks)
		if !reflect.DeepEqual(a.p, b.p) || !reflect.DeepEqual(a.opt, b.opt) {
			t.Errorf("%s: seed 7 built two different workloads", w.name)
		}
		if reflect.DeepEqual(a.p.Batch, c.p.Batch) {
			t.Errorf("%s: seeds 7 and 8 built the same batch", w.name)
		}
		if w.faulty && a.opt.Faults.Seed != 7 {
			t.Errorf("%s: fault plan seed %d, want the workload seed", w.name, a.opt.Faults.Seed)
		}
	}
}

// TestMetricNamesMatchSpec runs every workload in both output modes and
// checks the printed metrics against BENCHMARK.json, both ways.
func TestMetricNamesMatchSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit+" "+d.better)
		}
		sort.Strings(out)
		return out
	}
	var specE2E, specLayer, specWorkloads, codeWorkloads []string
	for _, m := range spec.EndToEnd {
		specE2E = append(specE2E, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range spec.PerLayer {
		specLayer = append(specLayer, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, wl := range spec.Workloads {
		specWorkloads = append(specWorkloads, wl.Name+": "+wl.Why)
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name+": "+w.why)
	}
	sort.Strings(specE2E)
	sort.Strings(specLayer)
	if !reflect.DeepEqual(specE2E, names(endToEnd)) || !reflect.DeepEqual(specLayer, names(perLayer)) {
		t.Errorf("BENCHMARK.json metrics differ from the code's:\nspec %v %v\ncode %v %v",
			specE2E, specLayer, names(endToEnd), names(perLayer))
	}
	if !reflect.DeepEqual(specWorkloads, codeWorkloads) {
		t.Errorf("BENCHMARK.json workloads differ from the code's:\nspec %q\ncode %q", specWorkloads, codeWorkloads)
	}

	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range small() {
		w.batches = 2
		r := measure(&w, 3, w.tasks, w.batches, measureConfig{timed: 2, traced: 2})
		if !r.Correct || r.Failed != 0 || r.Attempted != 5*2*w.tasks {
			t.Fatalf("%s: correct %v, failed %d of %d, problems %q", w.name, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var buf bytes.Buffer
			if err := printLine(&buf, r, trace); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			var printed, want []string
			for name, v := range line.Metrics {
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				printed = append(printed, name+" "+v.Unit)
			}
			for _, d := range defs {
				want = append(want, d.name+" "+d.unit)
			}
			sort.Strings(printed)
			sort.Strings(want)
			if !reflect.DeepEqual(printed, want) {
				t.Errorf("%s, trace %d: printed %v, want %v", w.name, trace, printed, want)
			}
		}
	}
}

// TestReferenceKernelIsFixed checks that the reference kernel does the
// same work on every call, and that a run timed between two kernel
// timings at the nominal speed keeps its wall time.
func TestReferenceKernelIsFixed(t *testing.T) {
	a, b := referencePlacement(60, 600, 24), referencePlacement(60, 600, 24)
	if a != b || !(a > 0) {
		t.Errorf("two runs of the reference kernel returned makespans %v and %v", a, b)
	}
	near := func(got, want float64) bool { return got > want*(1-1e-12) && got < want*(1+1e-12) }
	if got := rescale(0.5, refNominalMS/2, refNominalMS*3/2); !near(got, 0.5) {
		t.Errorf("rescale at the nominal mean speed = %v, want 0.5", got)
	}
	if got := rescale(0.5, refNominalMS*2, refNominalMS*2); !near(got, 0.25) {
		t.Errorf("rescale on a machine twice as slow = %v, want 0.25", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		a, b, c2 := quartiles(c.xs)
		if got := [3]float64{a, b, c2}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, P25: m * 0.99, P75: m * 1.01} }
	for _, c := range []struct {
		a, b       summary
		better     string
		timingsOff bool
		want       string
	}{
		{tight(1), tight(1.05), "lower", false, "same"},
		{tight(1), tight(1.2), "lower", false, "worse"},
		{tight(1), tight(0.8), "lower", false, "better"},
		{tight(1), tight(1.2), "higher", false, "better"},
		{tight(1), tight(1.2), "lower", true, "unresolved"},
		{summary{Median: 1, P25: 0.8, P75: 1.2}, tight(1.2), "lower", false, "unresolved"},
	} {
		if got := verdict(c.a, c.b, 0.1, c.better, c.timingsOff); got != c.want {
			t.Errorf("verdict(%+v, %+v, %s, %v) = %s, want %s", c.a, c.b, c.better, c.timingsOff, got, c.want)
		}
	}
}
