package faults

import "math"

// Injector is a FaultPlan compiled for one run over a compute cluster
// of known size. It is deliberately hash-based rather than stream-
// based: each decision mixes the seed with the stable identity of the
// event it concerns (node, round, file, destination, attempt), so the
// answer never depends on the order in which the executor asks.
//
// The only mutable state is the per-node crash cursor, advanced by
// ConsumeCrash when the runtime observes a crash; an Injector must
// therefore be used by one run at a time (the core runtime builds a
// fresh one per run).
type Injector struct {
	plan FaultPlan
	// crashes[n] is node n's cumulative crash-time sequence (absolute
	// simulated seconds), generated lazily; cursor[n] indexes the next
	// pending (unconsumed) event. Node-indexed slices, never maps, so
	// iteration order is fixed.
	crashes [][]float64
	cursor  []int
}

// NewInjector compiles the plan for a cluster with numCompute nodes.
// Disabled plans (nil or zero) compile to a nil Injector. Every method
// is nil-safe and answers for a fault-free run: no crash, no failed
// transfer, no straggler, one transfer attempt.
func NewInjector(p *FaultPlan, numCompute int) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{
		plan:    p.WithDefaults(),
		crashes: make([][]float64, numCompute),
		cursor:  make([]int, numCompute),
	}
}

// MaxTransferRetries returns the per-staging attempt bound: one
// attempt on a nil Injector, whose transfers never fail.
func (in *Injector) MaxTransferRetries() int {
	if in == nil {
		return 1
	}
	return in.plan.MaxTransferRetries
}

// TaskRetryBudget returns the per-task re-queue bound (0 on a nil
// Injector, which never interrupts a task).
func (in *Injector) TaskRetryBudget() int {
	if in == nil {
		return 0
	}
	return in.plan.TaskRetryBudget
}

// Decision domains, mixed into the hash so that e.g. crash draws and
// transfer draws over the same indices stay independent.
const (
	kindCrash uint64 = iota + 1
	kindXferFail
	kindXferFrac
	kindStragHit
	kindStragFactor
	// Speculative-twin domains, appended so every pre-existing draw
	// keeps its value: a run that never forks twins is bit-identical
	// to one under an injector without these domains.
	kindSpecHit
	kindSpecFactor
)

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer
// with no state, used here as a keyed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 hashes (seed, parts...) to a uniform float64 in [0, 1).
func (in *Injector) u01(parts ...uint64) float64 {
	h := splitmix64(uint64(in.plan.Seed))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return float64(h>>11) / (1 << 53)
}

func (in *Injector) mttf(n int) float64 {
	if n < len(in.plan.PerNodeMTTF) && in.plan.PerNodeMTTF[n] > 0 {
		return in.plan.PerNodeMTTF[n]
	}
	return in.plan.NodeMTTF
}

// extendCrashes generates node n's crash sequence up to index k.
func (in *Injector) extendCrashes(n, k int) {
	m := in.mttf(n)
	if m <= 0 {
		return
	}
	seq := in.crashes[n]
	for len(seq) <= k {
		i := len(seq)
		u := in.u01(kindCrash, uint64(n), uint64(i))
		// Exponential inter-crash gap with a tiny floor so two events
		// never coincide exactly.
		dt := -m * math.Log1p(-u)
		if dt < 1e-9 {
			dt = 1e-9
		}
		prev := 0.0
		if i > 0 {
			prev = seq[i-1]
		}
		seq = append(seq, prev+dt)
	}
	in.crashes[n] = seq
}

// CrashTime returns the absolute simulated time of compute node n's
// next pending crash, or +Inf when node n never crashes. The pending
// event stays pending until ConsumeCrash is called (the runtime
// consumes it when the crash is observed, i.e. falls inside an
// executed sub-batch window).
func (in *Injector) CrashTime(n int) float64 {
	if in == nil || in.mttf(n) <= 0 || n >= len(in.cursor) {
		return math.Inf(1)
	}
	in.extendCrashes(n, in.cursor[n])
	return in.crashes[n][in.cursor[n]]
}

// ConsumeCrash advances node n past its pending crash event: the node
// has rebooted and the next CrashTime call returns the following
// event.
func (in *Injector) ConsumeCrash(n int) {
	if in == nil || n >= len(in.cursor) {
		return
	}
	in.cursor[n]++
}

// TransferFail decides whether one transfer attempt fails. The
// identity is (file, dst, src, round, attempt): src is the source
// compute node or -1 for a remote (storage) transfer, round is the
// sub-batch ordinal, attempt counts from 1. On failure, frac in
// (0, 1) is how far through its duration the attempt dies.
func (in *Injector) TransferFail(file, dst, src, round, attempt int) (frac float64, failed bool) {
	if in == nil || in.plan.LinkFailProb <= 0 {
		return 0, false
	}
	id := []uint64{kindXferFail, uint64(file), uint64(dst), uint64(int64(src) + 2), uint64(round), uint64(attempt)}
	if in.u01(id...) >= in.plan.LinkFailProb {
		return 0, false
	}
	id[0] = kindXferFrac
	// Die somewhere in the middle 90% of the transfer so partial
	// reservations are never degenerate.
	return 0.05 + 0.9*in.u01(id...), true
}

// Straggler returns the slowdown multiplier (>= 1) for one execution
// attempt of task t in sub-batch round.
func (in *Injector) Straggler(task, round int) float64 {
	if in == nil || in.plan.StragglerProb <= 0 || in.plan.StragglerFactor <= 1 {
		return 1
	}
	if in.u01(kindStragHit, uint64(task), uint64(round)) >= in.plan.StragglerProb {
		return 1
	}
	return 1 + (in.plan.StragglerFactor-1)*in.u01(kindStragFactor, uint64(task), uint64(round))
}

// SpecStraggler returns the slowdown multiplier (>= 1) for the
// speculative twin attempt of one task in one sub-batch round. The
// identity is (task, round) like Straggler's, but hashed through
// disjoint domains: the twin's luck is independent of the primary's,
// and consulting it never perturbs any primary-path draw (launching a
// twin cannot change what happens to tasks that are not speculated).
func (in *Injector) SpecStraggler(task, round int) float64 {
	if in == nil || in.plan.StragglerProb <= 0 || in.plan.StragglerFactor <= 1 {
		return 1
	}
	if in.u01(kindSpecHit, uint64(task), uint64(round)) >= in.plan.StragglerProb {
		return 1
	}
	return 1 + (in.plan.StragglerFactor-1)*in.u01(kindSpecFactor, uint64(task), uint64(round))
}

// StragglerDist returns the compiled plan's slowdown distribution.
func (in *Injector) StragglerDist() StragglerDist {
	if in == nil {
		return StragglerDist{}
	}
	return in.plan.StragglerDist()
}

// Backoff returns the capped exponential delay before retry attempt a
// (a counts from 2; the first attempt has no delay).
func (in *Injector) Backoff(attempt int) float64 {
	if in == nil || attempt <= 1 {
		return 0
	}
	d := in.plan.BackoffBase * math.Pow(2, float64(attempt-2))
	if d > in.plan.BackoffCap {
		return in.plan.BackoffCap
	}
	return d
}
