package main

import (
	"runtime"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

// clock is the benchmark's only wall-clock read.
func clock() time.Time {
	return time.Now() //schedlint:allow nowallclock,tracepurity benchmark timing taken around public calls; never fed back into a schedule
}

// layerTimer is a transparent core.Scheduler: it forwards every call
// unchanged and attributes the run's wall time to layers. A
// PlanSubBatch call is the planner, an Evict call is eviction, and the
// gap from a PlanSubBatch return to the next scheduler call (or to the
// run's return) is the §6 executor. It keeps the *core.State it is
// handed so the state's retained memory can be measured after the run.
type layerTimer struct {
	inner core.Scheduler
	// mem reads runtime.MemStats at every layer boundary, outside the
	// timed intervals, to attribute allocation to layers.
	mem bool
	st  *core.State

	plan, evict, exec    time.Duration
	planDur              []time.Duration
	planned, evictFiles  int
	evictCalls           int
	planAlloc, execAlloc uint64
	execFrom             time.Time // zero while no executor phase is open
	execAllocFrom        uint64
	memStats             runtime.MemStats
}

func (l *layerTimer) Name() string { return l.inner.Name() }

func (l *layerTimer) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	l.endExec(clock())
	l.st = st
	a0 := l.totalAlloc()
	t0 := clock()
	plan, err := l.inner.PlanSubBatch(st, pending)
	d := clock().Sub(t0)
	l.planAlloc += l.totalAlloc() - a0
	l.plan += d
	l.planDur = append(l.planDur, d)
	if plan != nil {
		l.planned += len(plan.Tasks)
	}
	l.execAllocFrom = l.totalAlloc()
	l.execFrom = clock()
	return plan, err
}

func (l *layerTimer) Evict(st *core.State, pending []batch.TaskID) {
	l.endExec(clock())
	n0 := st.Evictions
	t0 := clock()
	l.inner.Evict(st, pending)
	l.evict += clock().Sub(t0)
	l.evictCalls++
	l.evictFiles += st.Evictions - n0
}

// endExec closes the open executor phase at t.
func (l *layerTimer) endExec(t time.Time) {
	if l.execFrom.IsZero() {
		return
	}
	l.exec += t.Sub(l.execFrom)
	l.execAlloc += l.totalAlloc() - l.execAllocFrom
	l.execFrom = time.Time{}
}

func (l *layerTimer) totalAlloc() uint64 {
	if !l.mem {
		return 0
	}
	runtime.ReadMemStats(&l.memStats)
	return l.memStats.TotalAlloc
}

// retainedMB is the live heap, in MB, that the run's State still holds:
// the heap after a full GC with the state reachable, minus the heap
// after dropping it and collecting again.
func (l *layerTimer) retainedMB() float64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	l.st = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	return float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / 1e6
}

// runOutcome is one core.RunWith call and what was measured around it.
type runOutcome struct {
	res  *core.Result
	err  error
	wall time.Duration
	lt   *layerTimer // nil when the run was not wrapped
	// Whole-run runtime deltas, read only for traced runs.
	allocMB      float64
	mallocs, gcs uint64
}

// runOnce builds a fresh scheduler and runs the whole pipeline once.
// Traced and checked runs go through the layer timer; traced runs also
// read runtime.MemStats at every layer boundary and around the run.
func runOnce(in *instance, traced, checked bool) runOutcome {
	var out runOutcome
	s := in.sched()
	if traced || checked {
		out.lt = &layerTimer{inner: s, mem: traced}
		s = out.lt
	}
	opt := in.opt
	opt.Checked = checked
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t0 := clock()
	out.res, out.err = core.RunWith(in.p, s, opt)
	t1 := clock()
	out.wall = t1.Sub(t0)
	if out.lt != nil {
		out.lt.endExec(t1)
	}
	if traced {
		runtime.ReadMemStats(&m1)
		out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		out.mallocs = m1.Mallocs - m0.Mallocs
		out.gcs = uint64(m1.NumGC - m0.NumGC)
	}
	return out
}
