package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/spec"
)

// RunStatus reports how a batch run ended.
type RunStatus string

const (
	// StatusComplete: every task executed.
	StatusComplete RunStatus = "Complete"
	// StatusDegraded: fault-recovery budgets were exhausted and some
	// tasks were abandoned (DegradedTasks counts them).
	StatusDegraded RunStatus = "Degraded"
)

// Result aggregates one full batch run: the three-stage pipeline
// applied repeatedly until every task has executed.
type Result struct {
	Scheduler string
	// Status is StatusComplete unless fault injection exhausted some
	// task's retry budget (then StatusDegraded).
	Status RunStatus
	// SchedulingTime is the real wall-clock time the scheduler spent
	// planning sub-batches and evicting between them, as the run's plan
	// and evict phase spans measure it (the paper's scheduling
	// overhead; Figure 6(b) reports it per task).
	SchedulingTime time.Duration
	SubBatches     int
	TaskCount      int
	// Evictions counts the file copies this run's eviction policy
	// removed (not any earlier run's on the same State).
	Evictions int
	// DegradedTasks counts tasks abandoned after their retry budget
	// was exhausted; they are not executed and not counted in TasksRun.
	DegradedTasks int

	// ExecStats sums the runtime stage's per-sub-batch statistics.
	// Sub-batches run back to back, so Makespan is the total simulated
	// batch execution time in seconds. Its fields are promoted, so
	// Result marshals to one flat JSON object.
	ExecStats
}

// SchedulingMSPerTask returns the paper's Figure 6(b) metric.
// Computed from fractional milliseconds: Duration.Milliseconds()
// truncates, which would report 0 for any scheduler faster than 1 ms
// per task overall.
func (r *Result) SchedulingMSPerTask() float64 {
	if r.TaskCount == 0 {
		return 0
	}
	return r.SchedulingTime.Seconds() * 1000 / float64(r.TaskCount)
}

// Observer bundles the optional observability sinks for a run. The
// zero value observes nothing at zero cost. Observation is write-only:
// neither sink ever feeds information back into scheduling, so an
// observed run commits exactly the schedule an unobserved one does
// (pinned by TestObservedRunIdenticalToPlain).
type Observer struct {
	// Trace receives spans and instant events from every pipeline
	// phase, the planners' included: the run hands it to the scheduler
	// on State.Trace. Nil means no tracing. Its simulated-time tracks
	// are projected from the run's journal by TraceJournal (from a
	// private recorder when Journal is nil), so a Journal given
	// alongside a Trace, or to a Checked run (whose checks read the
	// sub-batch's events back from it), must not be shared with
	// concurrent runs.
	Trace *obs.Trace
	// Metrics receives counters/gauges/histograms; nil means none.
	Metrics *obs.Metrics
	// Journal receives decision-provenance events (placement
	// rationale, staging source choices, eviction victims,
	// fault/recovery activity); nil means none. All journal
	// timestamps are simulated time and all emissions happen in the
	// sequential sections of the pipeline, so for a fixed seed the
	// journal bytes are identical at any worker count.
	Journal *journal.Recorder
}

// RunOptions bundles the optional behaviors of a run: post-hoc
// schedule validation, observability sinks, and fault injection. The
// zero value runs the plain pipeline.
type RunOptions struct {
	// Checked enables the schedule validator: after every sub-batch,
	// its port timelines and its journaled stage and exec events are
	// re-checked post hoc (no port reservation overlap, disk capacity
	// never exceeded, every input file staged before its task starts)
	// and any violation aborts the run with an error naming it. Tests
	// use this so that scheduler bugs surface as invariant violations
	// instead of silently wrong makespans. It journals the run, into a
	// private journal when Obs.Journal is nil, so a Journal given with
	// Checked must not be shared with concurrent runs either.
	Checked bool
	// Obs attaches tracing/metrics sinks.
	Obs Observer
	// Faults, when non-nil and enabled, injects the scenario's crash,
	// transfer-failure and straggler events and activates the recovery
	// path (retry/backoff, replica-preferring re-staging, re-queueing
	// with per-task budgets). Nil or disabled plans draw no fault: the
	// run is the zero-fault case of the same commit path, byte-identical
	// to a run without this option.
	Faults *faults.FaultPlan
	// Spec, when non-nil and active (and Faults enabled), forks
	// speculative duplicate attempts of straggling executions:
	// first finisher wins, the loser is cancelled deterministically.
	// Nil or spec.Never takes the exact non-speculative code paths.
	Spec *spec.Policy
}

// RunWith executes the complete three-stage pipeline of the paper: the
// scheduler repeatedly selects and maps a sub-batch of the pending
// tasks (stages 1–2), the §6 runtime stage executes it on the
// simulated platform (stage 3), and the scheduler's eviction policy
// frees compute-cluster disk before the next round. RunWith returns
// the accumulated result once every task has executed.
func RunWith(p *Problem, s Scheduler, opt RunOptions) (*Result, error) {
	st, err := NewState(p)
	if err != nil {
		return nil, err
	}
	return RunFrom(st, s, p.Batch.AllTasks(), opt)
}

// RunFrom is RunWith starting from an existing cluster state and an
// explicit pending-task set, allowing callers to chain batches over a
// warm disk cache. Task IDs already completed in st, and duplicate
// IDs, are skipped rather than double-executed — recovery re-queueing
// feeds this path and hand-built resume lists may contain both. An ID
// outside the batch is an error.
func RunFrom(st *State, s Scheduler, pending []batch.TaskID, opt RunOptions) (*Result, error) {
	if err := opt.Faults.Validate(); err != nil {
		return nil, err
	}
	inj := faults.NewInjector(opt.Faults, st.P.Platform.NumCompute())
	ob := opt.Obs
	tr := ob.Trace
	tr.NameTrack(obs.DomainReal, obs.TrackSched, "scheduler ("+s.Name()+")")
	// Dedupe the pending list and skip already-completed task IDs. The
	// cleaned list preserves first-occurrence order, so a clean input
	// behaves exactly as before.
	pendingSet := make(map[batch.TaskID]bool, len(pending))
	clean := make([]batch.TaskID, 0, len(pending))
	for _, t := range pending {
		if t < 0 || int(t) >= len(st.Done) {
			return nil, fmt.Errorf("core: pending task %d is not in the batch (%d tasks)", t, len(st.Done))
		}
		if pendingSet[t] || st.Done[t] {
			continue
		}
		pendingSet[t] = true
		clean = append(clean, t)
	}
	pending = clean
	res := &Result{Scheduler: s.Name(), Status: StatusComplete, TaskCount: len(pending)}
	// Thread the journal and the tracer through the state so schedulers
	// and eviction policies can record rationale and spans. Assigned
	// unconditionally: a run without them on a reused state must not
	// write into a stale sink. A traced or checked run without a
	// journal records into a private one, which the simulated-time
	// trace is projected from and the checks read; the State drops it
	// when the run returns, so a finished run holds no event log.
	j := ob.Journal
	if j == nil && (tr.Enabled() || opt.Checked) {
		j = journal.New()
		defer func() { st.J = nil }()
	}
	st.J, st.Trace = j, tr
	// projected indexes the event the next projection starts from. Each
	// projection ends on a plan or run_end event, which closes the
	// previous sub-batch; a plan event opens the next one, so the next
	// projection starts from it again.
	projected := j.Len()
	project := func() {
		if tr.Enabled() {
			evs := j.Since(projected)
			TraceJournal(tr, st.P.Platform, evs)
			projected += len(evs) - 1
		}
	}
	st.JRound = res.SubBatches
	j.Emit(journal.Event{T: st.Clock, Kind: journal.KindRunStart,
		Run: &journal.Run{Sched: s.Name(), Tasks: len(pending)}})
	// st.Evictions counts over the State's whole life; a chained run
	// reports only its own share.
	evictionsBefore := st.Evictions
	// Per-task re-queue counts against the fault-recovery budget.
	attempts := make(map[batch.TaskID]int)
	budget := inj.TaskRetryBudget()
	for len(pending) > 0 {
		st.JRound = res.SubBatches
		// The phase spans time planning and eviction (the Fig 6(b)
		// overhead); with a nil tracer they still time, recording nothing.
		endPlan := tr.Span(obs.TrackSched, "phase", "plan",
			obs.A("pending", len(pending)), obs.A("sub_batch", res.SubBatches))
		plan, err := s.PlanSubBatch(st, pending)
		var outcome []obs.Arg
		switch {
		case err != nil:
			outcome = []obs.Arg{obs.A("error", err.Error())}
		case plan != nil && len(plan.Tasks) > 0:
			outcome = []obs.Arg{obs.A("planned_tasks", len(plan.Tasks))}
		}
		elapsed := endPlan(outcome...)
		res.SchedulingTime += elapsed
		ob.Metrics.Observe("core.plan_ms", elapsed.Seconds()*1000)
		if err != nil {
			return nil, fmt.Errorf("core: %s failed to plan a sub-batch with %d tasks pending: %w", s.Name(), len(pending), err)
		}
		if plan == nil || len(plan.Tasks) == 0 {
			return nil, fmt.Errorf("core: %s returned an empty sub-batch with %d tasks pending", s.Name(), len(pending))
		}
		for _, t := range plan.Tasks {
			if !pendingSet[t] {
				return nil, fmt.Errorf("core: %s planned task %d which is not pending", s.Name(), t)
			}
		}
		// The sub-batch's events start at its plan event.
		from := j.Len()
		j.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlan, Round: res.SubBatches,
			Plan: &journal.Plan{Sched: s.Name(), Pending: len(pending), Planned: len(plan.Tasks),
				Pinned: plan.Pinned, PreStages: len(plan.PreStage)}})
		project()
		endExec := tr.Span(obs.TrackSched, "phase", "execute",
			obs.A("tasks", len(plan.Tasks)))
		e, err := newExecutor(st, plan, inj, res.SubBatches, opt.Spec)
		var stats *ExecStats
		if err == nil {
			var start *subBatchStart
			if opt.Checked {
				start = newSubBatchStart(e)
			}
			stats, err = e.run()
			if err == nil && start != nil {
				if v := start.validate(j.Since(from)); len(v) > 0 {
					err = fmt.Errorf("invalid schedule:\n  %s", strings.Join(v, "\n  "))
				}
			}
		}
		endExec()
		if err != nil {
			return nil, fmt.Errorf("core: executing %s sub-batch %d: %w", s.Name(), res.SubBatches, err)
		}
		res.SubBatches++
		res.ExecStats.Add(stats)

		// Completed tasks leave the pending set; fault-interrupted ones
		// stay pending (they were not marked Done) until their re-queue
		// budget runs out, at which point they are abandoned as
		// degraded.
		for _, t := range plan.Tasks {
			if st.Done[t] {
				delete(pendingSet, t)
			}
		}
		for _, t := range e.requeued {
			attempts[t]++
			if attempts[t] > budget {
				delete(pendingSet, t)
				res.DegradedTasks++
				res.Status = StatusDegraded
				j.Emit(journal.Event{T: st.Clock, Kind: journal.KindFault, Round: res.SubBatches - 1,
					Fault: &journal.Fault{Class: journal.FaultAbandon, Node: -1, Task: int(t), File: -1,
						Attempt: attempts[t], Detail: "re-queue budget exhausted; task abandoned as degraded"}})
			}
		}
		pending = pending[:0]
		for t := range pendingSet {
			pending = append(pending, t)
		}
		pending = batch.SortedCopy(pending)

		if len(pending) > 0 {
			st.JRound = res.SubBatches
			endEvict := tr.Span(obs.TrackSched, "phase", "evict")
			s.Evict(st, pending)
			elapsed := endEvict()
			res.SchedulingTime += elapsed
			ob.Metrics.Observe("core.evict_ms", elapsed.Seconds()*1000)
		}
	}
	res.Evictions = st.Evictions - evictionsBefore
	// Fault and speculation counters are reported only for runs that
	// inject faults, so a fault-free run's metrics keep their key set.
	faulty := opt.Faults.Enabled()
	if faulty && opt.Spec.Active() {
		ob.Metrics.Count("core.spec.launches", int64(res.SpecLaunches))
		ob.Metrics.Count("core.spec.wins", int64(res.SpecWins))
		ob.Metrics.Count("core.spec.cancels", int64(res.SpecCancels))
		ob.Metrics.Count("core.spec.saved", int64(res.SpecSaved))
		ob.Metrics.SetGauge("core.spec.wasted_s", res.SpecWastedSeconds)
	}
	if faulty {
		ob.Metrics.Count("core.fault.transfer_failures", int64(res.TransferFailures))
		ob.Metrics.Count("core.fault.transfer_retries", int64(res.TransferRetries))
		ob.Metrics.Count("core.fault.replica_recoveries", int64(res.ReplicaRecoveries))
		ob.Metrics.Count("core.fault.crashes", int64(res.Crashes))
		ob.Metrics.Count("core.fault.stragglers", int64(res.Stragglers))
		ob.Metrics.Count("core.fault.requeued_tasks", int64(res.RequeuedTasks))
		ob.Metrics.Count("core.fault.degraded_tasks", int64(res.DegradedTasks))
		ob.Metrics.SetGauge("core.fault.wasted_s", res.WastedSeconds)
	}
	ob.Metrics.Count("core.tasks", int64(res.TaskCount))
	ob.Metrics.Count("core.sub_batches", int64(res.SubBatches))
	ob.Metrics.Count("core.remote_transfers", int64(res.RemoteTransfers))
	ob.Metrics.Count("core.remote_bytes", res.RemoteBytes)
	ob.Metrics.Count("core.replica_transfers", int64(res.ReplicaTransfers))
	ob.Metrics.Count("core.replica_bytes", res.ReplicaBytes)
	ob.Metrics.Count("core.evictions", int64(res.Evictions))
	ob.Metrics.Count("core.exec.probes", int64(res.Probes))
	ob.Metrics.Count("core.exec.probe_reuses", int64(res.ProbeReuses))
	ob.Metrics.Count("core.exec.bound_skips", int64(res.BoundSkips))
	ob.Metrics.Count("core.exec.ect_reevals", int64(res.ECTReevals))
	ob.Metrics.SetGauge("core.makespan_s", res.Makespan)
	j.Emit(journal.Event{T: st.Clock, Kind: journal.KindRunEnd, Round: res.SubBatches,
		Run: &journal.Run{Sched: s.Name(), Tasks: res.TaskCount, Status: string(res.Status),
			Makespan: res.Makespan, SubBatches: res.SubBatches}})
	project()
	return res, nil
}
