// Command batchsched runs one scheduling experiment: it generates a
// workload, builds a platform, runs the chosen scheduler through the
// full three-stage pipeline on the simulator, and reports the result.
//
// Usage:
//
//	batchsched -app sat|image -tasks 100 -overlap high|medium|low
//	           -platform xio|osumed -compute 4 -storage 4
//	           -sched ip|bipartition|minmin|jdp [-disk-gb 40]
//	           [-no-replication] [-ip-budget NODES] [-seed 1] [-v]
//	           [-workers N] [-faults SCENARIO] [-speculate POLICY]
//	           [-obs-trace out.json] [-obs-metrics out.json] [-obs-gantt]
//	           [-journal out.jsonl] [-listen :8080 [-serve-for 10m]]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -faults injects a deterministic failure scenario into the simulated
// run ("chaos mode"): a preset (mild, harsh), key=value pairs
// (seed, mttf, linkp, stragp, stragf, retries, budget, backoff, cap),
// or a preset with overrides, e.g. -faults harsh,seed=7. Failed
// transfers retry with capped exponential backoff (preferring a
// surviving replica), crashed nodes lose their disk cache and their
// unfinished tasks are re-queued; a run whose retry budgets are
// exhausted ends with status Degraded. The same scenario spec always
// reproduces the identical schedule.
//
// -speculate arms the straggler watchdog (internal/spec): never (the
// default), fixed-factor[:F] (fork a duplicate once a task has run F×
// its fault-free duration, default 2), or single-fork[:Q] (fork at
// the Q-quantile of the scenario's straggler slowdown distribution,
// default 0.9; alias single-fork-at-t*). The first finisher wins, the
// loser is cancelled deterministically and its started port time is
// burnt as wasted compute. Only meaningful together with -faults —
// without an injector the threshold is never exceeded.
//
// A malformed command line is a usage error: the message and the flag
// summary go to stderr and the exit status is 2. That covers unknown
// -app, -overlap, -platform and -sched names, a malformed -faults or
// -speculate spec, -tasks, -compute or -storage below 1, and a
// -disk-gb that is negative, NaN, infinite or too large. -disk-gb 0
// (the default) means unlimited disk.
//
// -ip-budget is the IP scheduler's branch-and-bound node budget: the
// nodes each portfolio dive of an allocation solve explores (a
// selection solve gets half); 0 selects the default, and a negative
// count is a usage error. A node budget, unlike a time budget, gives
// the same schedule on every machine.
//
// -workers sets the parallelism of the hypergraph partitioner
// (BiPartition, and the IP scheduler's warm start); 0 uses every CPU,
// 1 runs it on one worker, and a negative count is a usage error. The
// schedule for a fixed seed does not depend on the worker count; the
// IP scheduler's branch-and-bound portfolio has a fixed size.
//
// -obs-trace records every pipeline phase and simulated reservation
// as Chrome trace-event JSON (open in Perfetto: ui.perfetto.dev);
// -obs-metrics snapshots the run's counters/histograms as JSON;
// -obs-gantt prints an ASCII Gantt of the simulated schedule.
// -journal records every pipeline decision (placement rationale,
// staging source choices, evictions, faults) as a JSONL provenance
// journal for schedexplain; for a fixed seed its bytes are identical
// at any -workers count.
// -listen starts the live introspection server (internal/obs/
// introspect): /metrics in Prometheus text format, /events streaming
// the journal as server-sent events, /journal, /gantt, and the pprof
// mux. After the run the process keeps serving until interrupted, or
// for -serve-for if set.
// -cpuprofile/-memprofile/-trace write the standard Go profiles.
// Observation is write-only: the schedule is identical with or
// without these flags.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

func main() {
	app := flag.String("app", "image", "workload: sat or image")
	tasks := flag.Int("tasks", 100, "batch size")
	overlapName := flag.String("overlap", "high", "file sharing: high, medium, low")
	platName := flag.String("platform", "xio", "storage system: xio or osumed")
	computeN := flag.Int("compute", 4, "compute nodes")
	storageN := flag.Int("storage", 4, "storage nodes")
	schedName := flag.String("sched", "bipartition", "scheduler: ip, bipartition, minmin, jdp")
	diskGB := flag.Float64("disk-gb", 0, "per-node compute disk in GB (0 = unlimited)")
	noRep := flag.Bool("no-replication", false, "forbid compute-to-compute replication")
	ipBudget := flag.Int("ip-budget", ipsched.DefaultNodeBudget, "branch-and-bound nodes per dive of each IP allocation solve, selection gets half (0 = default)")
	seed := flag.Int64("seed", 1, "workload seed")
	verbose := flag.Bool("v", false, "print workload statistics")
	workers := flag.Int("workers", 0, "partitioner parallelism (0 = all CPUs, 1 = one worker); never changes the schedule")
	faultSpec := flag.String("faults", "", "failure scenario: none, mild, harsh, or key=value pairs (e.g. harsh,seed=7)")
	specSpec := flag.String("speculate", "", "speculation policy: never, fixed-factor[:F], or single-fork[:Q] (needs -faults)")
	obsTrace := flag.String("obs-trace", "", "write a Chrome trace-event JSON of the run (view in Perfetto)")
	obsMetrics := flag.String("obs-metrics", "", "write a JSON snapshot of the run's metrics")
	obsGantt := flag.Bool("obs-gantt", false, "print an ASCII Gantt of the simulated schedule")
	journalPath := flag.String("journal", "", "write a decision-provenance journal (JSONL) for schedexplain")
	listen := flag.String("listen", "", "serve live introspection (/metrics, /events, /gantt, pprof) on this address, e.g. :8080")
	serveFor := flag.Duration("serve-for", 0, "with -listen: keep serving this long after the run finishes (0 = until interrupted)")
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
	for _, f := range []struct {
		name string
		n    int
	}{{"tasks", *tasks}, {"compute", *computeN}, {"storage", *storageN}} {
		if f.n < 1 {
			usage("-%s %d: must be ≥ 1", f.name, f.n)
		}
	}
	diskBytes := *diskGB * float64(platform.GB)
	if !(diskBytes == 0 || diskBytes >= 1 && diskBytes < math.MaxInt64) {
		usage("-disk-gb %v: must be 0 (unlimited) or a finite size of at least one byte", *diskGB)
	}

	var overlap workload.Overlap
	switch strings.ToLower(*overlapName) {
	case "high":
		overlap = workload.HighOverlap
	case "medium", "med":
		overlap = workload.MediumOverlap
	case "low":
		overlap = workload.LowOverlap
	default:
		usage("unknown overlap %q (want high, medium, low)", *overlapName)
	}

	var generate func() (*batch.Batch, error)
	switch strings.ToLower(*app) {
	case "sat":
		generate = func() (*batch.Batch, error) {
			return workload.Sat(workload.SatConfig{NumTasks: *tasks, Overlap: overlap, NumStorage: *storageN, Seed: *seed})
		}
	case "image":
		generate = func() (*batch.Batch, error) {
			return workload.Image(workload.ImageConfig{NumTasks: *tasks, Overlap: overlap, NumStorage: *storageN, Seed: *seed})
		}
	default:
		usage("unknown app %q (want sat, image)", *app)
	}

	disk := int64(diskBytes)
	var pf *platform.Platform
	switch strings.ToLower(*platName) {
	case "xio":
		pf = platform.XIO(*computeN, *storageN, disk)
	case "osumed":
		pf = platform.OSUMED(*computeN, *storageN, disk)
	default:
		usage("unknown platform %q (want xio, osumed)", *platName)
	}

	fp, err := faults.Parse(*faultSpec)
	if err != nil {
		usage("%v", err)
	}
	sp, err := spec.Parse(*specSpec)
	if err != nil {
		usage("%v", err)
	}

	// The live plane (-listen) serves every sink, so it turns them all on.
	ob := core.Observer{}
	if *obsTrace != "" || *obsGantt || *listen != "" {
		ob.Trace = obs.New()
	}
	if *obsMetrics != "" || *listen != "" {
		ob.Metrics = obs.NewMetrics()
	}
	if *journalPath != "" || *listen != "" {
		ob.Journal = journal.New()
	}

	var sched core.Scheduler
	switch strings.ToLower(*schedName) {
	case "ip":
		ip := ipsched.New(*seed)
		ip.NodeBudget = *ipBudget
		ip.Workers = *workers
		sched = ip
	case "bipartition", "bipart":
		bp := bipart.New(*seed)
		bp.Workers = *workers
		sched = bp
	case "minmin":
		sched = minmin.New()
	case "jdp", "jobdatapresent":
		sched = jdp.New()
	default:
		usage("unknown scheduler %q (want ip, bipartition, minmin, jdp)", *schedName)
	}

	stopProf, err := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Runtime: *runtimeTrace}.Start()
	if err != nil {
		fatal("%v", err)
	}

	if *listen != "" {
		srv := introspect.New(introspect.Options{Metrics: ob.Metrics, Journal: ob.Journal, Trace: ob.Trace})
		go func() {
			err := srv.ListenAndServe(*listen, func(addr net.Addr) {
				fmt.Fprintf(os.Stderr, "introspection: serving http://%s/ (/metrics, /events, /journal, /gantt, /debug/pprof/)\n", addr)
			})
			fatal("introspect: %v", err)
		}()
	}

	b, err := generate()
	if err != nil {
		fatal("%v", err)
	}

	p := &core.Problem{Batch: b, Platform: pf, DisableReplication: *noRep}
	if err := p.Validate(); err != nil {
		fatal("problem: %v", err)
	}
	if *verbose {
		st := b.ComputeStats()
		fmt.Printf("workload: %d tasks, %d files, %.2f GB unique, %.1f files/task, %.0f%% overlap\n",
			st.NumTasks, st.NumFiles, float64(st.TotalBytes)/float64(platform.GB), st.MeanFilesPerTask, st.Overlap*100)
	}

	if sp.Active() && fp == nil {
		fmt.Fprintln(os.Stderr, "speculate: no fault scenario (-faults); the watchdog threshold is never exceeded and the policy is inert")
	}

	res, err := core.RunWith(p, sched, core.RunOptions{Obs: ob, Faults: fp, Spec: sp})
	if err != nil {
		fatal("run: %v", err)
	}
	fmt.Printf("scheduler:            %s\n", res.Scheduler)
	fmt.Printf("batch execution time: %.2f s (simulated)\n", res.Makespan)
	fmt.Printf("scheduling overhead:  %v (%.3f ms/task)\n", res.SchedulingTime.Round(time.Millisecond), res.SchedulingMSPerTask())
	fmt.Printf("sub-batches:          %d\n", res.SubBatches)
	fmt.Printf("remote transfers:     %d (%.2f GB)\n", res.RemoteTransfers, float64(res.RemoteBytes)/float64(platform.GB))
	fmt.Printf("replications:         %d (%.2f GB)\n", res.ReplicaTransfers, float64(res.ReplicaBytes)/float64(platform.GB))
	fmt.Printf("evictions:            %d\n", res.Evictions)
	if fp != nil {
		fmt.Printf("status:               %s", res.Status)
		if res.DegradedTasks > 0 {
			fmt.Printf(" (%d task(s) abandoned)", res.DegradedTasks)
		}
		fmt.Println()
		fmt.Printf("fault scenario:       %s\n", fp.String())
		fmt.Printf("transfer failures:    %d (%d retries, %d recovered via replicas)\n",
			res.TransferFailures, res.TransferRetries, res.ReplicaRecoveries)
		fmt.Printf("node crashes:         %d (%d tasks re-queued)\n", res.Crashes, res.RequeuedTasks)
		fmt.Printf("stragglers:           %d\n", res.Stragglers)
		fmt.Printf("wasted port time:     %.2f s\n", res.WastedSeconds)
	}
	if sp.Active() {
		fmt.Printf("speculation:          %s\n", sp)
		fmt.Printf("twins launched:       %d (%d twin wins, %d crash rescues)\n",
			res.SpecLaunches, res.SpecWins, res.SpecSaved)
		fmt.Printf("cancelled attempts:   %d (%.2f s of port time burnt)\n",
			res.SpecCancels, res.SpecWastedSeconds)
	}

	if *obsGantt {
		fmt.Println()
		if err := ob.Trace.WriteASCIIGantt(os.Stdout, 100); err != nil {
			fatal("gantt: %v", err)
		}
	}
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
	if *listen != "" {
		if *serveFor > 0 {
			fmt.Fprintf(os.Stderr, "introspection: serving for another %v\n", *serveFor)
			time.Sleep(*serveFor)
		} else {
			fmt.Fprintln(os.Stderr, "introspection: run finished; serving until interrupted (Ctrl-C)")
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt)
			<-sig
		}
	}
}

// usage reports a malformed command line: the message, then the flag
// summary, then exit status 2.
func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
