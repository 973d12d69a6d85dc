package core

import (
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/obs/journal"
)

// specOp is one tentatively scheduled twin transfer, recorded so the
// winner-resolution path can replay the exact slot. src is -1 for a
// remote (storage) transfer.
type specOp struct {
	file       batch.FileID
	src, dst   int
	start, dur float64
}

// twinPlan is a fully planned speculative duplicate attempt of one
// task: the twin host, the transfers that stage its missing inputs,
// and its execution window. end is the twin's projected completion.
type twinPlan struct {
	node               int
	ops                []specOp
	execStart, execDur float64
	end                float64
}

// specOn reports whether this run forks speculative twins: it needs
// both an active policy and an injector (without stragglers there is
// nothing to mitigate, and thresholds derive from the injector's
// straggler distribution).
func (e *executor) specOn() bool { return e.pol.Active() && e.inj != nil }

// plannedBytesOutstanding returns the bytes node j must still receive
// for the missing inputs of its not-yet-done assigned tasks (each
// file counted once). The twin capacity guard subtracts it from Free
// so a forked duplicate can never eat disk space a later commit on j
// relies on.
func (e *executor) plannedBytesOutstanding(j int) int64 {
	if e.seen == nil {
		e.seen = make([]uint32, e.st.P.Batch.NumFiles())
	}
	e.seenGen++
	if e.seenGen == 0 {
		clear(e.seen)
		e.seenGen = 1
	}
	var sum int64
	for _, t := range e.plan.Tasks {
		if e.plan.Node[t] != j || e.st.Done[t] {
			continue
		}
		for _, f := range e.st.P.Batch.Tasks[t].Files {
			if _, held := e.committedAt(j, f); held || e.seen[f] == e.seenGen {
				continue
			}
			e.seen[f] = e.seenGen
			sum += e.st.P.Batch.FileSize(f)
		}
	}
	return sum
}

// planTwin tentatively schedules a duplicate attempt of task t on
// node j, forked at forkT while the primary still occupies node c
// over [primStart, primStart+primDur). Everything happens on
// overlays; the recorded ops let the winner-resolution path replay
// exactly the slots that were planned. Twin staging is always dynamic
// and single-hop (min-TCT over current holders and the storage home)
// and floored at the fork time — a twin cannot move data before it
// exists.
func (e *executor) planTwin(t batch.TaskID, task *batch.Task, j, c int, forkT, primStart, primDur float64) twinPlan {
	var ops []specOp
	v := e.twinEnv(forkT, &ops)
	// The primary keeps executing while the twin races it: its full
	// stretched window occupies node c in the twin's view, so copies
	// sourced from c queue behind it.
	v.reserve(e.computePort(c), primStart, primDur)
	// A copy must complete before its source node crashes (the same
	// rule survivingReplica applies on the retry path): block every
	// crash-doomed node's port from its crash time onward, so copies
	// that cannot fit before the crash price out of bestSource and a
	// twin never sources data from a dead node.
	const specFar = 1e18
	for j2 := range e.computeTL {
		if j2 == j {
			continue
		}
		if ca := e.crashRel[j2]; !math.IsInf(ca, 1) {
			if ca < 0 {
				ca = 0
			}
			v.reserve(e.computePort(j2), ca, specFar)
		}
	}

	// Tentative scheduling cannot fail: the fault paths are
	// commit-only. The pre-reserved, floored view is not the committed
	// state, so the memo stays out.
	arrival, _ := v.stageInputs(task.Files, j, false)

	// The twin draws its own straggler luck through disjoint hash
	// domains: forking never perturbs any primary-path draw.
	dur := (float64(e.st.P.Batch.TaskBytes(t))/e.st.P.Platform.Compute[j].LocalReadBW + task.Compute) * e.inj.SpecStraggler(int(t), e.round)
	exStart := v.searcher(e.computePort(j)).EarliestSlot(math.Max(arrival, forkT), dur)
	return twinPlan{node: j, ops: ops, execStart: exStart, execDur: dur, end: exStart + dur}
}

// commitTwinOps replays the twin's recorded transfer ops against the
// committed timelines. Ops finishing by stopT commit as real stagings
// with journaled cause "spec" (the copies persist — even a losing
// twin leaves useful replicas behind); ops in flight at stopT are
// cancelled: the occupied port time burns and the staging is rolled
// back through State (AddFile then Unstage) so the disk cache never
// shows a half-arrived file. Ops not yet started at stopT vanish.
// Returns the burnt port-seconds and whether any op had started.
func (e *executor) commitTwinOps(bp twinPlan, stopT float64) (waste float64, started bool, err error) {
	v := newCommitEnv(e)
	e.specCause = "spec"
	defer func() { e.specCause = "" }()
	for i := range bp.ops {
		op := &bp.ops[i]
		if op.start >= stopT {
			continue
		}
		started = true
		if op.start+op.dur <= stopT {
			if _, err = v.commitTransfer(op.file, op.src, op.dst, op.start, op.dur); err != nil {
				return waste, started, err
			}
			continue
		}
		if err = e.st.AddFile(op.dst, op.file, e.base()+stopT); err != nil {
			return waste, started, err
		}
		e.st.Unstage(op.dst, op.file)
		waste += e.burn(op.dst, e.curTask, op, op.start, stopT, "twin's transfer cut off when the twin stopped")
	}
	return waste, started, nil
}

// cancelTwin stops task t's losing twin bp at stopT — when the primary
// finished, or when crashed, when the twin's own host died: transfers
// done by then commit, the one in flight is cut, and the execution
// window up to stopT burns. It returns the twin's burnt port-seconds.
func (e *executor) cancelTwin(bp twinPlan, t batch.TaskID, stopT float64, crashed bool) (float64, error) {
	waste, started, err := e.commitTwinOps(bp, stopT)
	if err != nil {
		return 0, err
	}
	detail := "twin cancelled: primary finished first"
	if crashed {
		detail = "twin " + burnKilled
	}
	if w := e.burn(bp.node, int(t), nil, bp.execStart, stopT, detail); w > 0 {
		waste += w
		started = true
	}
	e.stats.SpecWastedSeconds += waste
	if crashed && started {
		e.crashSeen[bp.node] = true
	}
	e.stats.SpecCancels++
	return waste, nil
}

// trySpeculate is the watchdog hook on the commit path: when task t's
// committed (straggler-stretched) execution runs past the policy
// threshold, it forks a duplicate attempt on the best other node,
// resolves the first-finisher race, commits the winner and cancels
// the loser. It reports handled=false when the watchdog does not fire
// (or no twin host fits), in which case the caller proceeds down the
// ordinary commit.
func (e *executor) trySpeculate(t batch.TaskID, c int, task *batch.Task, start, execDur, baseDur float64) (handled bool, end float64, err error) {
	thr := e.pol.Threshold(baseDur, e.inj.StragglerDist())
	if math.IsInf(thr, 1) {
		return false, 0, nil
	}
	// The watchdog only monitors attempts that actually start. A task
	// whose node is already down at its start time never begins
	// executing — detecting that is the failure detector's job, and
	// the ordinary abort/requeue path handles it (letting the
	// scheduler re-place the task instead of burning a threshold wait
	// on a node known to be dead).
	if e.crashRel[c] <= start {
		return false, 0, nil
	}
	// The watchdog fires iff the primary has not reported completion
	// by start+thr: either its stretched execution runs past the
	// threshold, or its node crashes mid-run and the attempt never
	// finishes at all (the watchdog cannot tell the two apart — a
	// silent task is a silent task).
	if primAlive := start+execDur <= e.crashRel[c]; primAlive && execDur <= thr {
		return false, 0, nil
	}
	// Duplicating a merely-slow (but live) primary trades port time
	// for latency: the pair always burns more total port time than
	// letting the straggler finish, so mid-batch — when every port the
	// twin could take still has useful work queued behind it — the
	// trade loses and the watchdog stands down. It pays only in the
	// drain phase (fewer waiting tasks than ports, the same
	// near-completion gate Hadoop-style speculation uses), where the
	// twin rides a port that would otherwise idle and a win shortens
	// the sub-batch tail directly. Crash-killed primaries are exempt:
	// their alternative is a requeue into a later sub-batch, which is
	// strictly worse than any finite twin.
	if start+execDur <= e.crashRel[c] && e.drainLeft >= len(e.computeTL) {
		return false, 0, nil
	}
	forkT := start + thr

	primEnd := start + execDur
	primAlive := primEnd <= e.crashRel[c]

	// A fork is only worthwhile if the twin can plausibly win the
	// race. Conditioned on "still silent at the threshold", a live
	// primary finishes uniformly within (thr, F·baseDur] — so a twin
	// projected past the conditional mean (thr + F·baseDur)/2 is a bad
	// bet: forking it would burn another node's port for an expected
	// loss. This prices out twins on saturated ports or with expensive
	// staging, leaving the forks that matter — stragglers in the batch
	// tail, duplicated onto nodes that are idle and already cache the
	// inputs. A dead primary never finishes, so any finite twin
	// rescues the task and no bound applies.
	limit := math.Inf(1)
	if primAlive {
		limit = start + (thr+e.inj.StragglerDist().Factor*baseDur)/2
	}

	// Pick the twin host: every other node is scored by the projected
	// completion of a tentatively planned duplicate (inputs already
	// cached count for free; missing ones stage dynamically, no
	// earlier than the fork). Nodes the failure detector knows are
	// dead at fork time, or whose disk cannot hold the missing inputs
	// on top of what pending commits still need, are recorded as
	// non-fitting candidates.
	var cands []journal.Candidate
	best := -1
	var bp twinPlan
	for j := range e.computeTL {
		if j == c {
			continue
		}
		if e.crashRel[j] <= forkT {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		var missing int64
		for _, f := range task.Files {
			if _, held := e.committedAt(j, f); !held {
				missing += e.st.P.Batch.FileSize(f)
			}
		}
		if missing > e.st.Free(j)-e.plannedBytesOutstanding(j) {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		tp := e.planTwin(t, task, j, c, forkT, start, execDur)
		cands = append(cands, journal.Candidate{Node: j, Score: e.base() + tp.end, Fits: true})
		if tp.end < limit && (best < 0 || tp.end < bp.end) {
			best, bp = j, tp
		}
	}
	if best < 0 {
		return false, 0, nil // no twin host worth forking; the ordinary path decides the task's fate
	}

	b := e.base()
	twinEnd := bp.end
	twinAlive := twinEnd <= e.crashRel[best]
	e.stats.SpecLaunches++
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + forkT, Kind: journal.KindSpecLaunch, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Policy: e.pol.String(), Threshold: thr, Candidates: cands,
			Reason: fmt.Sprintf("task %d still running on node %d %.4gs after start (threshold %.4gs, policy %s): forked twin on node %d",
				t, c, execDur, thr, e.pol, best)}})
	}

	if twinAlive && (!primAlive || twinEnd < primEnd) {
		// Twin wins: cancel the primary at the twin's finish (or at
		// its own crash, whichever strikes first) and commit the twin
		// as the task's real execution.
		primStop := twinEnd
		crashKilled := false
		detail := "primary cancelled: twin finished first"
		if e.crashRel[c] < primStop {
			primStop, crashKilled, detail = e.crashRel[c], true, burnKilled
			e.crashSeen[c] = true
		}
		e.stats.SpecWastedSeconds += e.burn(c, int(t), nil, start, primStop, detail)
		if !primAlive {
			e.stats.SpecSaved++
		}
		if _, _, err := e.commitTwinOps(bp, math.Inf(1)); err != nil {
			return true, 0, err
		}
		e.commitExec(t, best, task, bp.execStart, bp.execDur)
		e.stats.SpecWins++
		e.stats.SpecCancels++
		if j := e.st.J; j.Enabled() {
			pe := b + primEnd
			if !primAlive {
				pe = -1
			}
			why := "primary attempt cancelled: twin finished first"
			if crashKilled {
				why = "primary crashed; twin completed the task"
			}
			j.Emit(journal.Event{T: b + twinEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", PrimaryEnd: pe, TwinEnd: b + twinEnd,
				Reason: fmt.Sprintf("twin on node %d finished at %.4g; primary on node %d cancelled", best, b+twinEnd, c)}})
			j.Emit(journal.Event{T: b + primStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", WastedS: primStop - start, Reason: why}})
		}
		return true, twinEnd, nil
	}

	if primAlive {
		// Primary wins (ties included): commit it exactly as the
		// pre-speculation path would have, then cancel the twin at the
		// primary's finish (or at the twin host's crash).
		e.commitExec(t, c, task, start, execDur)
		twinStop := primEnd
		twinCrashed := e.crashRel[best] < twinStop
		if twinCrashed {
			twinStop = e.crashRel[best]
		}
		waste, err := e.cancelTwin(bp, t, twinStop, twinCrashed)
		if err != nil {
			return true, 0, err
		}
		if j := e.st.J; j.Enabled() {
			te := b + twinEnd
			if !twinAlive {
				te = -1
			}
			why := "twin attempt cancelled: primary finished first"
			if twinCrashed {
				why = "twin host crashed; primary completed the task"
			}
			j.Emit(journal.Event{T: b + primEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", PrimaryEnd: b + primEnd, TwinEnd: te,
				Reason: fmt.Sprintf("primary on node %d finished at %.4g; twin on node %d cancelled", c, b+primEnd, best)}})
			j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", WastedS: waste, Reason: why}})
		}
		return true, primEnd, nil
	}

	// Both attempts die before finishing: burn both, cancel the twin,
	// and hand the task back exactly once (the run loop re-queues on
	// the single faultAbort, so a killed task with a twin in flight is
	// never double-requeued).
	crashAt := e.crashRel[c]
	e.stats.WastedSeconds += e.burn(c, int(t), nil, start, crashAt, burnKilled)
	e.crashSeen[c] = true
	twinStop := e.crashRel[best]
	waste, err := e.cancelTwin(bp, t, twinStop, true)
	if err != nil {
		return true, 0, err
	}
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Winner: "none", PrimaryEnd: -1, TwinEnd: -1, WastedS: waste,
			Reason: "both attempts crash-killed; task re-queued"}})
	}
	return true, 0, &faultAbort{node: c, at: crashAt, crash: true,
		reason: fmt.Sprintf("node %d crashed during task %d execution; speculative twin on node %d also died", c, t, best)}
}
