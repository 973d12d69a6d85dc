package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
)

// measureConfig sets how long one workload measurement runs: untraced
// (timed) and traced passes over all its batches until both minimum
// counts are met and seconds have passed.
type measureConfig struct {
	seconds       float64
	timed, traced int
}

// setups is how many times a run times the generation of its first
// setupBatches batches.
const setups, setupBatches = 7, 24

// result is one workload's measurement. Every metric is per batch:
// times and counts are means over the workload's batches, summarized
// over passes. End-to-end times are rescaled to the reference kernel's
// nominal speed (see reference.go).
type result struct {
	Correct bool `json:"correct"`
	// Attempted counts the tasks of every run; Failed counts degraded
	// tasks plus every task of a run that errored or did not reproduce
	// the checked run.
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	CalibMS   float64            `json:"calib_ms"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
}

func (r *result) fail(tasks int, format string, args ...any) {
	r.Correct = false
	r.Failed += tasks
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// measure runs one workload: one Checked run per batch whose result
// every later run of the batch must reproduce (it is also the warm-up),
// timed set-ups, then passes over all batches, timed with the layer
// timer off or traced with it on, alternating once both are wanted.
func measure(w *workloadDef, seed int64, tasks, batches int, cfg measureConfig) *result {
	r := &result{Correct: true, CalibMS: calibrate(),
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{}}
	per := 1 / float64(batches)

	ins, _, _, err := setUp(w, seed, tasks, batches, batches)
	if err != nil {
		r.Attempted += tasks * batches
		r.fail(tasks*batches, "%v", err)
		return r
	}

	checked := make([]*core.Result, batches)
	var makespan, remoteGB, memMB float64
	for b, in := range ins {
		runtime.GC()
		o := runOnce(in, false, true)
		r.Attempted += tasks
		if p := checkRun(w, o, nil, tasks); p != "" {
			r.fail(tasks, "checked run of batch %d: %s", b, p)
			return r
		}
		r.Failed += o.res.DegradedTasks
		checked[b] = o.res
		makespan += o.res.Makespan * per
		remoteGB += float64(o.res.RemoteBytes) / 1e9 * per
		memMB += o.lt.retainedMB() * per
	}

	// Set-up is timed after the checked runs have grown the heap, so
	// that it measures generation rather than the first page faults of
	// a fresh process. Every timed step sits between two timings of the
	// reference kernel; refMS holds the latest.
	refMS := timeReference()
	var refs []float64
	nextRef := func() (before, after float64) {
		before, refMS = refMS, timeReference()
		refs = append(refs, refMS)
		return before, refMS
	}
	var setupS, genS, valS []float64
	n := min(batches, setupBatches)
	for i := 0; i < setups; i++ {
		runtime.GC()
		_, gen, val, err := setUp(w, seed, tasks, batches, n)
		if err != nil {
			r.fail(0, "%v", err)
			return r
		}
		before, after := nextRef()
		genS = append(genS, gen.Seconds()/float64(n))
		valS = append(valS, val.Seconds()/float64(n))
		setupS = append(setupS, rescale((gen+val).Seconds()/float64(n), before, after))
	}

	var walls, rawWalls, tracedWalls []float64
	layers := map[string][]float64{}
	start := clock()
	for nT, nR := 0, 0; nT < cfg.timed || nR < cfg.traced || clock().Sub(start).Seconds() < cfg.seconds; {
		traced := cfg.traced > 0 && nR < nT && (nR < cfg.traced || nT >= cfg.timed)
		if traced {
			nR++
		} else {
			nT++
		}
		var wall, rawWall float64
		sums := map[string]float64{}
		ok := true
		for b, in := range ins {
			runtime.GC()
			o := runOnce(in, traced, false)
			before, after := nextRef()
			r.Attempted += tasks
			if p := checkRun(w, o, checked[b], tasks); p != "" {
				r.fail(tasks, "pass %d, batch %d: %s", nT+nR, b, p)
				ok = false
				continue
			}
			r.Failed += o.res.DegradedTasks
			wall += rescale(o.wall.Seconds(), before, after) * per
			rawWall += o.wall.Seconds() * per
			if traced {
				for name, v := range layerValues(o, in) {
					sums[name] += v * per
				}
			}
		}
		switch {
		case !ok:
		case !traced:
			walls = append(walls, wall)
			rawWalls = append(rawWalls, rawWall)
		default:
			tracedWalls = append(tracedWalls, wall)
			for name, v := range sums {
				layers[name] = append(layers[name], v)
			}
		}
	}

	put := func(m map[string]summary, defs []metricDef, name string, xs ...float64) {
		if len(xs) == 0 {
			return
		}
		for _, d := range defs {
			if d.name == name {
				m[name] = summarize(d.unit, xs)
				return
			}
		}
		panic("bench: undefined metric " + name)
	}
	e2e := func(name string, xs ...float64) { put(r.EndToEnd, endToEnd, name, xs...) }
	layer := func(name string, xs ...float64) { put(r.PerLayer, perLayer, name, xs...) }

	tps := make([]float64, len(walls))
	for i, w := range walls {
		tps[i] = float64(tasks) / w
	}
	e2e("wall_s", walls...)
	e2e("tasks_per_s", tps...)
	e2e("setup_s", setupS...)
	e2e("makespan_s", makespan)
	e2e("remote_gb", remoteGB)
	e2e("mem_mb", memMB)
	if len(tracedWalls) > 0 {
		for name, xs := range layers {
			layer(name, xs...)
		}
		layer("workload.gen_s", genS...)
		layer("core.validate_s", valS...)
		layer("bench.raw_wall_s", rawWalls...)
		layer("bench.ref_ms", refs...)
		if len(walls) > 0 {
			layer("bench.trace_overhead", median(tracedWalls)/median(walls)-1)
		}
	}
	return r
}

// setUp generates and validates the first n batches of a run, timing
// the two steps.
func setUp(w *workloadDef, seed int64, tasks, batches, n int) (ins []*instance, gen, val time.Duration, err error) {
	for b := 0; b < n; b++ {
		t0 := clock()
		in, err := w.build(batchSeed(seed, batches, b), tasks)
		t1 := clock()
		if err == nil {
			err = in.p.Validate()
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up of batch %d: %w", b, err)
		}
		gen += t1.Sub(t0)
		val += clock().Sub(t1)
		ins = append(ins, in)
	}
	return ins, gen, val, nil
}

// batchSeed derives the seed of batch b of a run with the given seed,
// so that distinct run seeds never share a batch.
func batchSeed(seed int64, batches, b int) int64 { return seed*int64(batches) + int64(b) }

// checkRun is the correctness gate. The checked run must succeed (with
// Checked set, that includes the gantt validator), schedule every task,
// and end Degraded only on a faulty workload; every later run must
// reproduce the checked run's result bit for bit. It returns "" on
// success.
func checkRun(w *workloadDef, o runOutcome, want *core.Result, tasks int) string {
	if o.err != nil {
		return o.err.Error()
	}
	res := o.res
	switch {
	case res.TaskCount != tasks:
		return fmt.Sprintf("ran %d of %d tasks", res.TaskCount, tasks)
	case res.Status != core.StatusComplete && !w.faulty:
		return fmt.Sprintf("status %s without fault injection", res.Status)
	case !(res.Makespan > 0):
		return fmt.Sprintf("makespan %v", res.Makespan)
	case want == nil:
		return ""
	}
	type fingerprint struct {
		makespan                  uint64
		remoteBytes, replicaBytes int64
		remote, replica, degraded int
		subBatches, evictions     int
		status                    core.RunStatus
	}
	fp := func(x *core.Result) fingerprint {
		return fingerprint{math.Float64bits(x.Makespan), x.RemoteBytes, x.ReplicaBytes,
			x.RemoteTransfers, x.ReplicaTransfers, x.DegradedTasks, x.SubBatches, x.Evictions, x.Status}
	}
	if got, exp := fp(res), fp(want); got != exp {
		return fmt.Sprintf("result %+v differs from the checked run's %+v", got, exp)
	}
	return ""
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed pure-CPU loop and returns the median of 11
// timings in milliseconds. Comparing it across result files tells a
// slower machine from a slower program.
func calibrate() float64 {
	runtime.GC()
	var ms []float64
	for i := 0; i < 11; i++ {
		t0 := clock()
		x := uint64(88172645463325252)
		for j := 0; j < 10_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, clock().Sub(t0).Seconds()*1e3)
	}
	return median(ms)
}
