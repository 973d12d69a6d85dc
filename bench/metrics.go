package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one metric the benchmark prints; better is "lower" or
// "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the scheduler sees, all per
// batch. They are measured with the layer timer off, and the three
// times are rescaled to the reference kernel's nominal speed.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},         // wall time of one core.RunWith
	{"tasks_per_s", "1/s", "higher"}, // tasks / wall_s
	{"setup_s", "s", "lower"},        // workload generation + Problem.Validate
	{"makespan_s", "sim_s", "lower"}, // simulated batch execution time
	{"remote_gb", "GB", "lower"},     // storage->compute bytes, the shared-I/O cost
	{"mem_mb", "MB", "lower"},        // live heap held by the run's core.State
}

// perLayer are measured in traced runs (layer timer and MemStats on).
// The comment on each group names the end-to-end metric it should move.
var perLayer = []metricDef{
	// Planner (PlanSubBatch: internal/sched/*, hypergraph): moves wall_s
	// on image-wide-minmin and sat-disk-bipart, not image-scale-jdp.
	{"sched.plan_s", "s", "lower"},
	{"sched.plan_share", "ratio", "lower"},
	{"sched.plan_calls", "count", "lower"},
	{"sched.plan_ms_p50", "ms", "lower"},
	{"sched.tasks_per_plan", "count", "higher"},
	{"sched.plan_alloc_mb", "MB", "lower"},
	{"sched.ms_per_task", "ms", "lower"},
	// §6 executor (exec.go, gantt): moves wall_s on image-scale-jdp and
	// image-faults-spec; the counts move makespan_s and remote_gb.
	{"core.exec_s", "s", "lower"},
	{"core.exec_share", "ratio", "lower"},
	{"core.exec_us_per_task", "us", "lower"},
	{"core.exec_us_per_transfer", "us", "lower"},
	{"core.exec_alloc_mb", "MB", "lower"},
	{"core.sub_batches", "count", "lower"},
	{"core.remote_transfers", "count", "lower"},
	{"core.replica_transfers", "count", "lower"},
	{"core.replica_gb", "GB", "lower"},
	{"core.storage_util", "ratio", "higher"},
	{"core.compute_util", "ratio", "higher"},
	// Executor recovery paths: move makespan_s and wall_s on
	// image-faults-spec only; zero elsewhere.
	{"core.transfer_failures", "count", "lower"},
	{"core.transfer_retries", "count", "lower"},
	{"core.replica_recoveries", "count", "higher"},
	{"core.crashes", "count", "lower"},
	{"core.requeued_tasks", "count", "lower"},
	{"core.degraded_tasks", "count", "lower"},
	{"core.wasted_frac", "ratio", "lower"},
	{"spec.launches", "count", "lower"},
	{"spec.win_ratio", "ratio", "higher"},
	// Eviction (Evict): moves remote_gb and makespan_s on
	// sat-disk-bipart only. Its time is a share of the run and a rate,
	// so the workloads that never evict report no constant zero time.
	{"eviction.share", "ratio", "lower"},
	{"eviction.calls", "count", "lower"},
	{"eviction.files", "count", "lower"},
	{"eviction.files_per_s", "1/s", "higher"},
	// Set-up: moves setup_s.
	{"workload.gen_s", "s", "lower"},
	{"core.validate_s", "s", "lower"},
	// Go runtime over the whole run: moves wall_s everywhere.
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// Traced wall time over the untraced median, minus 1.
	{"bench.trace_overhead", "ratio", "lower"},
	// The two factors of wall_s: the wall time as read, and the
	// reference kernel's time, which tracks the machine's speed.
	{"bench.raw_wall_s", "s", "lower"},
	{"bench.ref_ms", "ms", "lower"},
}

// layerValues derives the per-layer metrics of one traced run. The
// set-up metrics and the trace overhead are filled in by the caller.
func layerValues(o runOutcome, in *instance) map[string]float64 {
	r, l := o.res, o.lt
	wall := o.wall.Seconds()
	tasks := float64(r.TaskCount)
	transfers := float64(r.RemoteTransfers + r.ReplicaTransfers)
	pl := in.p.Platform
	return map[string]float64{
		"sched.plan_s":              l.plan.Seconds(),
		"sched.plan_share":          l.plan.Seconds() / wall,
		"sched.plan_calls":          float64(len(l.planDur)),
		"sched.plan_ms_p50":         median(durationsMS(l.planDur)),
		"sched.tasks_per_plan":      ratio(float64(l.planned), float64(len(l.planDur))),
		"sched.plan_alloc_mb":       float64(l.planAlloc) / 1e6,
		"sched.ms_per_task":         ratio(l.plan.Seconds()*1e3, tasks),
		"core.exec_s":               l.exec.Seconds(),
		"core.exec_share":           l.exec.Seconds() / wall,
		"core.exec_us_per_task":     ratio(l.exec.Seconds()*1e6, tasks),
		"core.exec_us_per_transfer": ratio(l.exec.Seconds()*1e6, transfers),
		"core.exec_alloc_mb":        float64(l.execAlloc) / 1e6,
		"core.sub_batches":          float64(r.SubBatches),
		"core.remote_transfers":     float64(r.RemoteTransfers),
		"core.replica_transfers":    float64(r.ReplicaTransfers),
		"core.replica_gb":           float64(r.ReplicaBytes) / 1e9,
		"core.storage_util":         ratio(r.StorageBusy, r.Makespan*float64(pl.NumStorage())),
		"core.compute_util":         ratio(r.ComputeBusy, r.Makespan*float64(pl.NumCompute())),
		"core.transfer_failures":    float64(r.TransferFailures),
		"core.transfer_retries":     float64(r.TransferRetries),
		"core.replica_recoveries":   float64(r.ReplicaRecoveries),
		"core.crashes":              float64(r.Crashes),
		"core.requeued_tasks":       float64(r.RequeuedTasks),
		"core.degraded_tasks":       float64(r.DegradedTasks),
		"core.wasted_frac":          ratio(r.WastedSeconds+r.SpecWastedSeconds, r.ComputeBusy),
		"spec.launches":             float64(r.SpecLaunches),
		"spec.win_ratio":            ratio(float64(r.SpecWins), float64(r.SpecLaunches)),
		"eviction.share":            l.evict.Seconds() / wall,
		"eviction.calls":            float64(l.evictCalls),
		"eviction.files":            float64(l.evictFiles),
		"eviction.files_per_s":      ratio(float64(l.evictFiles), l.evict.Seconds()),
		"runtime.alloc_mb":          o.allocMB,
		"runtime.mallocs":           float64(o.mallocs),
		"runtime.gc_cycles":         float64(o.gcs),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1e3
	}
	return out
}

// summary is a sample's median and quartiles.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

func summarize(unit string, xs []float64) summary {
	p25, p50, p75 := quartiles(xs)
	return summary{Unit: unit, Median: p50, P25: p25, P75: p75, N: len(xs)}
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spreads printed here match the
// ones computed from the benchmark's JSON lines. One sample is its own
// quartiles; no samples give NaN.
func quartiles(xs []float64) (p25, p50, p75 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
