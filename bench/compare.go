package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units, directions and regression bounds.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory under run.sh and the parent directory under
// `go run .` in bench/.
func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// calibTolerance is how far the two files' calib_ms may differ before
// their wall-clock metrics cannot be compared.
const calibTolerance = 0.05

// compareFiles prints, for each workload and metric, both sides'
// median and quartiles, the relative change of the median, the bound
// from BENCHMARK.json and a verdict. It reports whether any verdict is
// "worse". Per-layer metrics have no bound and get no verdict.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	worse := false
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "\n%s: missing from one side\n", wl.Name)
			continue
		}
		calibOff := math.Abs(rb.CalibMS/ra.CalibMS-1) > calibTolerance
		calibNote := ""
		if calibOff {
			calibNote = " (differs by more than 5%: timings unresolved)"
		}
		fmt.Fprintf(w, "\n%s  calib_ms %.3f -> %.3f%s  failed %d/%d -> %d/%d\n", wl.Name,
			ra.CalibMS, rb.CalibMS, calibNote, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		fmt.Fprintf(w, "  %-26s %-32s %-32s %9s %6s  %s\n", "metric", "A median [p25, p75]", "B median [p25, p75]", "delta", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-26s missing\n", m.Name)
				continue
			}
			timing := m.Unit == "s" || m.Unit == "1/s"
			v := verdict(sa, sb, m.Bound, m.Better, timing && calibOff)
			worse = worse || v == "worse"
			note := ""
			if (m.Name == "makespan_s" || m.Name == "remote_gb") && sa.Median != sb.Median {
				note = "  (schedule changed)"
			}
			fmt.Fprintf(w, "  %-26s %-32s %-32s %+8.2f%% %5.0f%%  %s%s\n", m.Name, fmtSummary(sa), fmtSummary(sb),
				100*relDelta(sa.Median, sb.Median), 100*m.Bound, v, note)
		}
		for _, m := range spec.PerLayer {
			sa, okA := ra.PerLayer[m.Name]
			sb, okB := rb.PerLayer[m.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "  %-26s %-32s %-32s %+8.2f%% %6s  -\n", m.Name, fmtSummary(sa), fmtSummary(sb),
				100*relDelta(sa.Median, sb.Median), "-")
		}
	}
	return worse, nil
}

// verdict compares two samples of an end-to-end metric. It is
// "unresolved" when either side's interquartile range, as a share of
// its median, exceeds the bound, or when the machine's speed changed
// between the two (timingsOff); otherwise "worse" or "better" when the
// median moved by more than the bound, else "same".
func verdict(a, b summary, bound float64, better string, timingsOff bool) string {
	if timingsOff || spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	d := relDelta(a.Median, b.Median)
	if better == "higher" {
		d = -d
	}
	switch {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "same"
}

// spread is the interquartile range as a share of the median.
func spread(s summary) float64 { return ratio(s.P75-s.P25, math.Abs(s.Median)) }

// relDelta is b's change relative to a; equal values, zero included,
// give 0.
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return b/a - 1
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.P25, s.P75)
}
