package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceSafe pins the nil-receiver contract: a nil *Trace
// records nothing and never panics, yet its spans still report their
// elapsed wall time, which is how the run loop times its phases.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil Trace is Enabled")
	}
	end := tr.Span(TrackSched, "phase", "plan", A("k", 1))
	time.Sleep(time.Millisecond)
	if d := end(A("v", 2)); d < time.Millisecond {
		t.Fatalf("nil Trace span measured %v, want ≥ 1ms", d)
	}
	tr.Instant(1, "c", "n")
	tr.SimSpan(1, "c", "n", 0, 1)
	tr.SimInstant(1, "c", "n", 0)
	tr.NameTrack(DomainSim, 1, "x")
	if got := tr.AllocTrack(DomainReal, "y"); got != 0 {
		t.Fatalf("nil AllocTrack = %d, want 0", got)
	}
	if d := NewSimOnly().Span(TrackSched, "phase", "plan")(); d < 0 {
		t.Fatalf("sim-only span measured %v", d)
	}
}

func TestChromeExportValidAndSorted(t *testing.T) {
	tr := New()
	tr.NameTrack(DomainSim, ComputeTrack(0), "compute 0")
	tr.NameTrack(DomainSim, TrackLink, "link")
	tr.SimSpan(ComputeTrack(0), "exec", "task t1", 5, 9, A("task", "t1"))
	tr.SimSpan(TrackLink, "remote", "xfer f1", 0, 5, A("bytes", 100))
	tr.SimInstant(ComputeTrack(0), "evict", "evict f2", 9)
	end := tr.Span(TrackSched, "phase", "plan")
	end(A("tasks", 3))
	tr.Instant(TrackSched, "solver", "incumbent", A("obj", 1.5))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	var phases []string
	for _, ev := range parsed.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "M") || !strings.Contains(joined, "X") || !strings.Contains(joined, "i") {
		t.Fatalf("missing expected phases in %q", joined)
	}
	// Simulated events on the same track must appear in time order.
	var lastTS float64 = -1
	for _, ev := range parsed.TraceEvents {
		if ev["ph"] == "M" || int(ev["pid"].(float64)) != int(DomainSim) {
			continue
		}
		if int(ev["tid"].(float64)) != ComputeTrack(0) {
			continue
		}
		ts := ev["ts"].(float64)
		if ts < lastTS {
			t.Fatalf("sim events out of order: %v after %v", ts, lastTS)
		}
		lastTS = ts
	}
}

func TestSimOnlyDeterministicBytes(t *testing.T) {
	build := func(shuffle bool) []byte {
		tr := NewSimOnly()
		// Real-domain recordings must be dropped entirely.
		tr.Span(TrackSched, "phase", "plan")(A("x", 1))
		tr.Instant(TrackSched, "c", "n")
		events := [][2]float64{{0, 3}, {3, 7}, {7, 11}}
		if shuffle { // record in a different order; export must not care
			events = [][2]float64{{7, 11}, {0, 3}, {3, 7}}
		}
		for _, e := range events {
			tr.SimSpan(ComputeTrack(1), "exec", "t", e[0], e[1])
		}
		tr.NameTrack(DomainSim, ComputeTrack(1), "compute 1")
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("sim-only export depends on recording order:\n%s\nvs\n%s", a, b)
	}
	if bytes.Contains(a, []byte("plan")) {
		t.Fatal("sim-only trace leaked a real-domain event")
	}
}

func TestTraceConcurrentUse(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				end := tr.Span(SolverTrack(g), "solver", "dive")
				tr.SimSpan(ComputeTrack(g), "exec", "t", float64(i), float64(i+1))
				tid := tr.AllocTrack(DomainReal, "branch")
				tr.Instant(tid, "c", "n")
				end()
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace export is not valid JSON")
	}
}

func TestAllocTrackUnique(t *testing.T) {
	tr := New()
	a := tr.AllocTrack(DomainReal, "a")
	b := tr.AllocTrack(DomainReal, "b")
	if a == b {
		t.Fatalf("AllocTrack returned duplicate id %d", a)
	}
}

func TestASCIIGantt(t *testing.T) {
	tr := New()
	tr.NameTrack(DomainSim, ComputeTrack(0), "compute 0")
	tr.SimSpan(ComputeTrack(0), "remote", "xfer", 0, 4)
	tr.SimSpan(ComputeTrack(0), "exec", "task", 4, 10)
	var buf bytes.Buffer
	if err := tr.WriteASCIIGantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "compute 0") {
		t.Fatalf("missing track label:\n%s", out)
	}
	if !strings.Contains(out, "=") || !strings.Contains(out, "#") {
		t.Fatalf("missing transfer/exec glyphs:\n%s", out)
	}
	// Empty trace renders a placeholder, not an error.
	var empty bytes.Buffer
	if err := New().WriteASCIIGantt(&empty, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no simulated-time events") {
		t.Fatalf("unexpected empty render: %q", empty.String())
	}
}

func TestProfilesStartStop(t *testing.T) {
	dir := t.TempDir()
	p := Profiles{
		CPU:     filepath.Join(dir, "cpu.pprof"),
		Mem:     filepath.Join(dir, "mem.pprof"),
		Runtime: filepath.Join(dir, "trace.out"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{p.CPU, p.Mem, p.Runtime} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s not written: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}
