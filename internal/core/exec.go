package core

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/obs/journal"
	"repro/internal/spec"
)

// ExecStats reports what the runtime stage did for one sub-batch.
type ExecStats struct {
	// Makespan is the sub-batch execution time: the latest finish time
	// over all compute nodes, measured from the sub-batch start.
	Makespan float64
	// TasksRun counts tasks executed.
	TasksRun int
	// RemoteTransfers / RemoteBytes count storage→compute stagings.
	RemoteTransfers int
	RemoteBytes     int64
	// ReplicaTransfers / ReplicaBytes count compute→compute copies.
	ReplicaTransfers int
	ReplicaBytes     int64
	// StorageBusy / ComputeBusy are total reserved seconds, summed over
	// nodes, for utilization reporting.
	StorageBusy float64
	ComputeBusy float64

	// Fault/recovery accounting, all zero on fault-free runs.
	TransferFailures  int     // transfer attempts that died partway
	TransferRetries   int     // retry attempts scheduled after a failure
	ReplicaRecoveries int     // successful retries served from a surviving replica
	Crashes           int     // node crashes observed this sub-batch
	Stragglers        int     // execution attempts slowed by a straggling node
	RequeuedTasks     int     // tasks interrupted and handed back for a later sub-batch
	WastedSeconds     float64 // port seconds burnt by failed or interrupted attempts

	// Speculative-execution accounting, all zero unless a speculation
	// policy forked twins this sub-batch.
	SpecLaunches      int     // speculative twin attempts forked
	SpecWins          int     // tasks completed by their twin (primary lost)
	SpecCancels       int     // losing attempts cancelled (one per launch)
	SpecSaved         int     // twin wins whose primary was crash-killed
	SpecWastedSeconds float64 // port seconds burnt by losing speculative attempts

	// Source-search accounting for the §6 staging loop. Probes counts
	// the bestSource searches run; ProbeReuses counts the ones skipped
	// because an earlier search's answer was still exact (a greedy
	// winner staged from the slot its probe found, or a commit-epoch
	// memo hit); BoundSkips counts the re-pricings a lower bound ruled
	// out (a missing file that provably could not win a greedy round).
	// Probes + ProbeReuses + BoundSkips is the search count of the
	// literal re-price-everything loop. ECTReevals counts stale
	// ECT-heap entries re-evaluated.
	Probes      int
	ProbeReuses int
	BoundSkips  int
	ECTReevals  int
}

// Add folds o into s. Every field is a plain sum, so aggregation is
// commutative and associative: merging per-sub-batch or per-cell stats
// in any order yields identical totals (Makespan sums because
// sub-batches run back to back).
func (s *ExecStats) Add(o *ExecStats) {
	s.Makespan += o.Makespan
	s.TasksRun += o.TasksRun
	s.RemoteTransfers += o.RemoteTransfers
	s.RemoteBytes += o.RemoteBytes
	s.ReplicaTransfers += o.ReplicaTransfers
	s.ReplicaBytes += o.ReplicaBytes
	s.StorageBusy += o.StorageBusy
	s.ComputeBusy += o.ComputeBusy
	s.TransferFailures += o.TransferFailures
	s.TransferRetries += o.TransferRetries
	s.ReplicaRecoveries += o.ReplicaRecoveries
	s.Crashes += o.Crashes
	s.Stragglers += o.Stragglers
	s.RequeuedTasks += o.RequeuedTasks
	s.WastedSeconds += o.WastedSeconds
	s.SpecLaunches += o.SpecLaunches
	s.SpecWins += o.SpecWins
	s.SpecCancels += o.SpecCancels
	s.SpecSaved += o.SpecSaved
	s.SpecWastedSeconds += o.SpecWastedSeconds
	s.Probes += o.Probes
	s.ProbeReuses += o.ProbeReuses
	s.BoundSkips += o.BoundSkips
	s.ECTReevals += o.ECTReevals
}

// faultAbort signals that injected faults prevented one task commit
// (node crash or exhausted transfer retries). The run loop re-queues
// the task instead of failing the run.
type faultAbort struct {
	node   int
	at     float64 // sub-batch-relative time of the terminal failure
	crash  bool    // caused by a node crash (vs a retry budget)
	reason string
}

func (f *faultAbort) Error() string { return "core: " + f.reason }

type stageKey struct {
	file batch.FileID
	dest int
}

type executor struct {
	st   *State
	plan *SubPlan

	// tls holds every port's timeline, indexed by port id: the storage
	// nodes, then the compute nodes, then the shared link (on
	// platforms with one). storageTL and computeTL are views of it;
	// linkPort is the link's id.
	tls       []*gantt.Timeline
	storageTL []*gantt.Timeline
	computeTL []*gantt.Timeline
	linkTL    *gantt.Timeline
	linkPort  int32
	// remoteBW[s*nc+c] is Platform.RemoteBW(s, c) and nodeBW[c] is
	// min(Compute[c].NetBW, IntraBW), so pricing a source costs a load
	// instead of a chain of math.Min calls (see replicaBW).
	remoteBW []float64
	nodeBW   []float64

	// holders[f] lists, in ascending node order, the compute nodes
	// holding f within this sub-batch, each with the committed
	// availability time of its copy, so source searches visit only
	// actual copies instead of every node. Copies are only ever added
	// within a sub-batch (see committedAt and setAvail).
	holders [][]fileCopy

	// tentEnv is the reusable tentative scheduling environment for ECT
	// probes, and twin the one for planning speculative twins: their
	// overlays and tentative copies are cleared between uses instead
	// of reallocated (the probe loop runs millions of times at scale).
	tentEnv, twin *schedEnv
	// candBuf backs stageInputs' missing-file worklist across calls.
	candBuf []stageCand
	// The commit-epoch memo caches first-round source probes of
	// tentative evaluations. Such a probe runs on a freshly cleared
	// overlay, so its answer depends only on committed state; it is
	// valid while the epoch it was priced in is current, and every
	// commit and pre-stage op starts a new one (bumpEpoch). memoFile[f]
	// heads f's chain of (dst, probe) entries in memoPool, one per
	// destination probed this epoch; bumpEpoch truncates the pool, so
	// it never holds more than one epoch's probes. Only a node running
	// two or more of the plan's tasks (nodeTasks[n] > 1) can serve one
	// task's probe to another, so only those nodes fill it.
	memoFile  []memoHead
	memoPool  []memoEntry
	epoch     uint32
	nodeTasks []int
	// seen and seenGen back plannedBytesOutstanding's per-file
	// counted-once set: f is counted while seen[f] == seenGen.
	seen    []uint32
	seenGen uint32

	planned map[stageKey]Staging

	stats ExecStats

	// Fault injection. A nil inj draws no fault (its methods are
	// nil-safe), so a fault-free run is the zero-fault case of the same
	// code.
	inj   *faults.Injector
	round int
	// crashRel[n] is node n's pending crash time relative to this
	// sub-batch's start (+Inf when it never crashes, and always without
	// an injector). Fixed for the whole sub-batch: crashes are consumed
	// only at the boundary.
	crashRel []float64
	// crashSeen[n] records that node n's pending crash interrupted
	// work, so the boundary must consume it even if the final makespan
	// ends before the crash time (the zero-progress edge case).
	crashSeen []bool
	// requeued collects tasks whose commit a fault aborted; they stay
	// pending and the caller re-plans them in a later sub-batch.
	requeued []batch.TaskID

	// Journal context for committed transfers: the task whose inputs
	// are being staged (-1 during pre-staging) and, under fault
	// injection, the attempt number of the transfer being committed.
	curTask    int
	curAttempt int
	// specCause, when non-empty, overrides the journaled cause of
	// committed transfers (the twin-commit path sets it to "spec").
	specCause string

	// pol is the speculative-execution policy; nil or inactive (and
	// any run without an injector) never forks a twin.
	pol *spec.Policy
	// drainLeft is the number of tasks still waiting behind the one
	// being committed (the ECT heap's residue). The watchdog uses it
	// to tell the drain phase — fewer waiting tasks than compute
	// ports, so ports are about to idle — from the saturated middle of
	// the sub-batch, where a duplicate could only displace useful
	// work.
	drainLeft int
}

// newExecutor prepares one sub-batch for the runtime stage. A non-nil
// inj injects transfer failures, crashes and stragglers (round,
// the sub-batch ordinal, is part of every failure's hashed identity);
// tasks a fault aborted are collected in e.requeued for the caller to
// re-plan. pol forks speculative twins of straggling executions. Nil
// inj and pol draw no fault and fork no twin.
func newExecutor(st *State, plan *SubPlan, inj *faults.Injector, round int, pol *spec.Policy) (*executor, error) {
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("core: empty sub-batch plan")
	}
	p := st.P
	nc := p.Platform.NumCompute()
	ns := p.Platform.NumStorage()
	e := &executor{st: st, plan: plan, inj: inj, round: round, curTask: -1, pol: pol,
		drainLeft: len(plan.Tasks), nodeTasks: make([]int, nc), epoch: 1,
		crashRel: make([]float64, nc), crashSeen: make([]bool, nc)}
	for n := range e.crashRel {
		e.crashRel[n] = inj.CrashTime(n) - st.Clock
	}
	nports := ns + nc
	if p.Platform.SharedLinkBW > 0 {
		nports++
	}
	e.tls = make([]*gantt.Timeline, nports)
	for i := range e.tls {
		e.tls[i] = gantt.NewTimeline()
	}
	e.storageTL, e.computeTL = e.tls[:ns:ns], e.tls[ns:ns+nc:ns+nc]
	e.linkPort = int32(ns + nc)
	if p.Platform.SharedLinkBW > 0 {
		e.linkTL = e.tls[e.linkPort]
	}
	e.remoteBW = make([]float64, ns*nc)
	for s := range ns {
		for c := range nc {
			e.remoteBW[s*nc+c] = p.Platform.RemoteBW(s, c)
		}
	}
	e.nodeBW = make([]float64, nc)
	for c := range nc {
		e.nodeBW[c] = min(p.Platform.Compute[c].NetBW, p.Platform.IntraBW)
	}
	nf := p.Batch.NumFiles()
	// Every copy the sub-batch starts with is available at time 0. The
	// per-file lists share one backing array; each is capped at its own
	// length, so a list that grows reallocates alone.
	total := 0
	for _, cs := range st.copies {
		total += len(cs)
	}
	backing := make([]fileCopy, total)
	e.holders = make([][]fileCopy, nf)
	for f, cs := range st.copies {
		hs := backing[:len(cs):len(cs)]
		backing = backing[len(cs):]
		for i, c := range cs {
			hs[i].node = c.node
		}
		e.holders[f] = hs
	}
	if plan.Pinned {
		if err := checkStagings(p, "staging", plan.Staging); err != nil {
			return nil, err
		}
		e.planned = make(map[stageKey]Staging, len(plan.Staging))
		for _, s := range plan.Staging {
			e.planned[stageKey{s.File, s.Dest}] = s
		}
	}
	if err := checkStagings(p, "pre-staging", plan.PreStage); err != nil {
		return nil, err
	}
	listed := make([]bool, p.Batch.NumTasks())
	for _, t := range plan.Tasks {
		if t < 0 || int(t) >= p.Batch.NumTasks() {
			return nil, fmt.Errorf("core: plan contains unknown task %d", t)
		}
		if listed[t] {
			return nil, fmt.Errorf("core: plan lists task %d twice", t)
		}
		listed[t] = true
		n, ok := plan.Node[t]
		if !ok {
			return nil, fmt.Errorf("core: plan contains task %d with no node assignment", t)
		}
		if n < 0 || n >= p.Platform.NumCompute() {
			return nil, fmt.Errorf("core: task %d assigned to unknown node %d", t, n)
		}
		if st.Done[t] {
			return nil, fmt.Errorf("core: task %d already executed", t)
		}
		e.nodeTasks[n]++
	}
	return e, nil
}

// checkStagings rejects a plan's staging list (named list in the
// error) when an entry names an unknown file, destination, kind or
// replica source: Scheduler is a public interface, so plans come from
// outside this package.
func checkStagings(p *Problem, list string, ss []Staging) error {
	nc := p.Platform.NumCompute()
	for _, s := range ss {
		switch {
		case s.File < 0 || int(s.File) >= p.Batch.NumFiles():
			return fmt.Errorf("core: %s entry names unknown file %d", list, s.File)
		case s.Dest < 0 || s.Dest >= nc:
			return fmt.Errorf("core: %s entry stages file %d onto unknown node %d", list, s.File, s.Dest)
		case s.Kind != Remote && s.Kind != Replica:
			return fmt.Errorf("core: %s entry for file %d has unknown kind %d", list, s.File, s.Kind)
		case s.Kind == Replica && (s.Src < 0 || s.Src >= nc):
			return fmt.Errorf("core: %s entry copies file %d from unknown node %d", list, s.File, s.Src)
		}
	}
	return nil
}

// scheduleTask stages task t's missing files (greedy min-TCT order,
// per §6) and then places its execution; it returns the task's
// completion time. With commit=false everything happens on overlays.
func (e *executor) scheduleTask(t batch.TaskID, commit bool) (float64, error) {
	var v *schedEnv
	if commit {
		// The commit changes the committed state every memoized probe
		// was priced against; nothing reads the memo until it returns.
		e.bumpEpoch()
		v = newCommitEnv(e)
		e.curTask = int(t)
	} else {
		v = e.tentativeEnv()
	}
	c := e.plan.Node[t]
	task := &e.st.P.Batch.Tasks[t]

	// A fresh tentative env sees exactly the committed state, so its
	// first-round probes may use the memo.
	arrival, err := v.stageInputs(task.Files, c, !commit && e.nodeTasks[c] > 1)
	if err != nil {
		return 0, err
	}

	// Execute: local read of all inputs plus computation, on the
	// node's port (no staging overlaps execution).
	baseDur := float64(e.st.P.Batch.TaskBytes(t))/e.st.P.Platform.Compute[c].LocalReadBW + task.Compute
	execDur := baseDur
	stragFactor := 0.0
	if commit {
		// Stragglers stretch only the committed execution; ECT
		// estimation stays fault-blind so tentative ordering is
		// identical at any worker count.
		if factor := e.inj.Straggler(int(t), e.round); factor > 1 {
			execDur *= factor
			e.stats.Stragglers++
			stragFactor = factor
		}
	}
	start := v.searcher(e.computePort(c)).EarliestSlot(arrival, execDur)
	if stragFactor > 1 {
		if j := e.st.J; j.Enabled() {
			j.Emit(journal.Event{T: e.base() + start, Kind: journal.KindFault, Round: e.round,
				Fault: &journal.Fault{Class: journal.FaultStraggler, Node: c, Task: int(t), File: -1,
					Factor: stragFactor, Detail: "execution stretched by straggling node"}})
		}
	}
	if commit && e.specOn() {
		// The watchdog may fork a duplicate attempt; when it does, the
		// speculation path owns the whole commit (winner, cancellation,
		// crash handling). When it does not fire, fall through to the
		// ordinary commit below.
		if handled, end, err := e.trySpeculate(t, c, task, start, execDur, baseDur); handled || err != nil {
			return end, err
		}
	}
	if !commit {
		return start + execDur, nil
	}
	if crashAt := e.crashRel[c]; start+execDur > crashAt {
		// Node c dies before this execution completes: burn the started
		// portion and hand the task back for re-queueing.
		e.stats.WastedSeconds += e.burn(c, int(t), nil, start, crashAt, burnKilled)
		e.crashSeen[c] = true
		return 0, &faultAbort{node: c, at: crashAt, crash: true,
			reason: fmt.Sprintf("node %d crashed during task %d execution", c, t)}
	}
	e.commitExec(t, c, task, start, execDur)
	return start + execDur, nil
}

// commitExec books task t's execution [start, start+dur) on node c
// and records every side effect of a completed task: Done marking,
// file touches and the journal's exec event.
func (e *executor) commitExec(t batch.TaskID, c int, task *batch.Task, start, dur float64) {
	e.computeTL[c].Reserve(start, dur)
	e.st.Done[t] = true
	e.stats.TasksRun++
	for _, f := range task.Files {
		e.st.Touch(c, f, e.base()+start+dur)
	}
	if j := e.st.J; j.Enabled() {
		b := e.base()
		inputs := make([]int, len(task.Files))
		for i, f := range task.Files {
			inputs[i] = int(f)
		}
		j.Emit(journal.Event{T: b + start, Kind: journal.KindExec, Round: e.round, Exec: &journal.Exec{
			Task: int(t), Node: c, Start: b + start, End: b + start + dur, Inputs: inputs}})
	}
}
