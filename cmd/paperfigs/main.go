// Command paperfigs regenerates the figures of "Task Scheduling and
// File Replication for Data-Intensive Jobs with Batch-shared I/O"
// (HPDC 2006) on the simulated platform, printing one table per
// figure panel.
//
// Usage:
//
//	paperfigs [-fig 3|4|5a|5b|6|chaos|all] [-quick] [-ip-budget NODES]
//	          [-skip-ip] [-seed N] [-csv dir] [-workers N] [-faults SCENARIO]
//	          [-speculate POLICY] [-obs-trace out.json] [-obs-metrics out.json]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -fig chaos runs the fault-tolerance matrix (fault scenario ×
// speculation × scheduler) instead of a paper figure; it sweeps its
// own scenarios and reports makespan, degradation with wasted
// compute, and recovery/speculation activity. -faults injects a fixed
// failure scenario (mild, harsh, or a key=value spec) into the cells
// of the ordinary figures, and -speculate arms the straggler watchdog
// (never, fixed-factor[:F], single-fork[:Q]) in those same cells;
// chaos ignores both and sweeps its own matrix.
//
// -ip-budget is the IP scheduler's branch-and-bound node budget: the
// nodes each portfolio dive of an allocation solve explores (a
// selection solve gets half). 0 selects the calibrated default, and a
// negative count is a usage error. Because the budget counts nodes,
// not seconds, IP cells are the same on every machine.
//
// -workers fans the independent cells of each figure (and the
// hypergraph partitioner) across N goroutines; 0 uses every CPU, 1
// reproduces the sequential run, and a negative count is a usage
// error. Rows and journals are identical for a given seed regardless
// of the worker count, IP cells included.
//
// A malformed command line is a usage error: the message and the flag
// summary go to stderr and the exit status is 2. That covers an
// unknown -fig, a malformed -faults or -speculate spec, and a negative
// -workers or -ip-budget; all are checked before any profile starts.
//
// -obs-trace records every cell's pipeline phases and simulated
// reservations into one Chrome trace-event JSON (open in Perfetto);
// -obs-metrics writes the deterministically merged metric registry of
// all cells. -cpuprofile/-memprofile/-trace write the standard Go
// profiles. Observation is write-only: tables are identical with or
// without these flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/report"
	"repro/internal/spec"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5a, 5b, 6, chaos, or all")
	quick := flag.Bool("quick", false, "shrink workloads ~10x for a fast smoke run")
	ipBudget := flag.Int("ip-budget", 0, fmt.Sprintf("branch-and-bound nodes per dive of each IP allocation solve, selection gets half (0 = default: %d, quick %d)", experiments.FullIPBudget, experiments.QuickIPBudget))
	skipIP := flag.Bool("skip-ip", false, "omit the IP scheduler")
	seed := flag.Int64("seed", 1, "workload generation seed")
	csvDir := flag.String("csv", "", "also write one CSV per table into this directory")
	workers := flag.Int("workers", 0, "parallel workers for figure cells and the partitioner (0 = all CPUs, 1 = one worker); never changes a result")
	faultSpec := flag.String("faults", "", "failure scenario for figure cells: none, mild, harsh, or key=value pairs")
	specSpec := flag.String("speculate", "", "speculation policy for figure cells: never, fixed-factor[:F], or single-fork[:Q] (needs -faults; chaos sweeps its own)")
	obsTrace := flag.String("obs-trace", "", "write a Chrome trace-event JSON of all cells (view in Perfetto)")
	obsMetrics := flag.String("obs-metrics", "", "write a JSON snapshot of the merged metric registry")
	journalPath := flag.String("journal", "", "write the merged decision-provenance journal (JSONL) for schedexplain")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	runtimeTrace := flag.String("trace", "", "write a Go runtime trace to this file")
	flag.Parse()
	if *workers < 0 {
		usage("-workers %d: must be ≥ 0 (0 = all CPUs)", *workers)
	}
	if *ipBudget < 0 {
		usage("-ip-budget %d: must be ≥ 0 (0 = default)", *ipBudget)
	}
	runners := map[string]func(experiments.Options) ([]*report.Table, error){
		"3": experiments.Fig3, "4": experiments.Fig4,
		"5a": experiments.Fig5a, "5b": experiments.Fig5b,
		"6": experiments.Fig6, "chaos": experiments.Chaos,
	}
	order := []string{*fig}
	if *fig == "all" {
		order = []string{"3", "4", "5a", "5b", "6"}
	} else if _, ok := runners[*fig]; !ok {
		usage("unknown figure %q (want 3, 4, 5a, 5b, 6, chaos, all)", *fig)
	}
	fp, err := faults.Parse(*faultSpec)
	if err != nil {
		usage("%v", err)
	}
	sp, err := spec.Parse(*specSpec)
	if err != nil {
		usage("%v", err)
	}
	if sp.Active() && fp == nil {
		fmt.Fprintln(os.Stderr, "speculate: no fault scenario (-faults); the watchdog threshold is never exceeded and the policy is inert")
	}

	stopProf, err := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Runtime: *runtimeTrace}.Start()
	if err != nil {
		fatal("%v", err)
	}

	ob := core.Observer{}
	if *obsTrace != "" {
		ob.Trace = obs.New()
	}
	if *obsMetrics != "" {
		ob.Metrics = obs.NewMetrics()
	}
	if *journalPath != "" {
		ob.Journal = journal.New()
	}
	opts := experiments.Options{Quick: *quick, IPBudget: *ipBudget, Seed: *seed, SkipIP: *skipIP, Workers: *workers, Obs: ob, Faults: fp, Spec: sp}

	start := time.Now() //schedlint:allow tracepurity wall-clock total reported to the user, never fed back into scheduling
	for _, f := range order {
		tables, err := runners[f](opts)
		if err != nil {
			fatal("figure %s: %v", f, err)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fatal("csv: %v", err)
				}
			}
		}
	}
	fmt.Printf("\ntotal time: %v\n", time.Since(start).Round(time.Second)) //schedlint:allow tracepurity same wall-clock report as above

	if *obsTrace != "" {
		if err := obs.WriteFile(*obsTrace, ob.Trace.WriteChrome); err != nil {
			fatal("obs-trace: %v", err)
		}
	}
	if *obsMetrics != "" {
		if err := obs.WriteFile(*obsMetrics, ob.Metrics.Snapshot().WriteJSON); err != nil {
			fatal("obs-metrics: %v", err)
		}
	}
	if *journalPath != "" {
		if err := obs.WriteFile(*journalPath, ob.Journal.WriteJSONL); err != nil {
			fatal("journal: %v", err)
		}
	}
	if err := stopProf(); err != nil {
		fatal("profile: %v", err)
	}
}

// usage reports a malformed command line: the message, then the flag
// summary, then exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func writeCSV(dir string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == ' ', r == '(', r == ')', r == ',', r == ':':
			return '_'
		default:
			return -1
		}
	}, t.Title)
	return obs.WriteFile(filepath.Join(dir, name+".csv"), func(w io.Writer) error {
		t.FprintCSV(w)
		return nil
	})
}
