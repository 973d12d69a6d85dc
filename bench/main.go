// Command bench is the repository benchmark. It generates each
// workload from a seed, drives the scheduling pipeline only through
// public calls (workload.Image/Sat, Problem.Validate, core.RunWith and
// a transparent core.Scheduler wrapper), checks every run against a
// validated reference run, and prints end-to-end and per-layer metrics
// by name with their units.
//
//	bash bench/run.sh                       # all workloads: 5 timed + 1 traced run each
//	bash bench/run.sh -o bench/results/a.json
//	bash bench/run.sh --workload sat-disk-bipart --seed 18 --seconds 15 --trace 0
//	bash bench/run.sh -compare a.json b.json
//
// With --trace 0 or 1 the last line of standard output is one JSON
// object holding correct, attempted, failed and the end-to-end (0) or
// per-layer (1) metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	name := flag.String("workload", "", "run one workload (default: all)")
	seed := flag.Int64("seed", 17, "workload seed; the fault plan gets it too")
	seconds := flag.Float64("seconds", 0, "keep measuring for at least this long")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
	outPath := flag.String("o", "", "write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	// One P: on a small shared machine the GC's background worker on a
	// second CPU slows the measured goroutine unpredictably (rep-to-rep
	// spread 12% at GOMAXPROCS=2 against 3.5% at 1 on the 2-CPU box the
	// bounds were set on). Schedules do not depend on it.
	runtime.GOMAXPROCS(1)

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *trace < -1 || *trace > 1 {
		fatalf("--trace must be 0 or 1")
	}

	defs := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatalf("%v", err)
		}
		defs = []workloadDef{*w}
	}
	cfg := measureConfig{seconds: *seconds, timed: 5, traced: 1}
	switch *trace {
	case 0:
		cfg.timed, cfg.traced = 2, 0
	case 1:
		cfg.timed, cfg.traced = 1, 1
	}

	file := resultFile{Env: readEnv(*seed), Workloads: map[string]*result{}}
	ok := true
	var last *result
	for i := range defs {
		w := &defs[i]
		fmt.Printf("== %s (seed %d): %s\n", w.name, *seed, w.why)
		r := measure(w, *seed, w.tasks, w.batches, cfg)
		printResult(r)
		file.Workloads[w.name] = r
		ok = ok && r.Correct
		last = r
	}
	if *outPath != "" {
		if err := writeJSON(*outPath, file); err != nil {
			fatalf("%v", err)
		}
	}
	if *trace >= 0 && len(defs) == 1 {
		if err := printLine(os.Stdout, last, *trace); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Env       env                `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

// env records what the numbers depend on besides the code. calib_ms,
// per workload, tracks the machine's speed at the time.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readEnv(seed int64) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown", Seed: seed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "-dirty"
		}
	}
	return e
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printResult(r *result) {
	fmt.Printf("correct %v, %d of %d tasks failed, calib_ms %.3f\n", r.Correct, r.Failed, r.Attempted, r.CalibMS)
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	for _, group := range []struct {
		defs []metricDef
		got  map[string]summary
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range group.defs {
			s, ok := group.got[d.name]
			if !ok {
				continue
			}
			fmt.Printf("  %-28s %14.6g %-6s p25 %.6g  p75 %.6g  n=%d\n", d.name, s.Median, d.unit, s.P25, s.P75, s.N)
		}
	}
}

// printLine prints the one-line JSON result: the end-to-end metrics
// for trace 0, the per-layer metrics for trace 1.
func printLine(w io.Writer, r *result, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEnd, r.EndToEnd
	if trace == 1 {
		defs, got = perLayer, r.PerLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		if s, ok := got[d.name]; ok {
			metrics[d.name] = value{s.Median, d.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
