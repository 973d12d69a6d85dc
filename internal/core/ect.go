package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/gantt"
	"repro/internal/obs/journal"
)

// ectEntry is a heap entry with a cached earliest completion time.
type ectEntry struct {
	task batch.TaskID
	ect  float64
	ver  int
}

// ectHeap is a binary min-heap on ect. push and pop follow
// container/heap's sift-up and sift-down step for step, so equal keys
// pop in the same order, without boxing every entry in an interface.
type ectHeap []ectEntry

func (h *ectHeap) push(x ectEntry) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].ect < q[i].ect) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *ectHeap) pop() ectEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].ect < q[j].ect {
			j = j2 // right child
		}
		if !(q[j].ect < q[i].ect) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// run commits the sub-batch: pre-staging first, then tasks in cached
// earliest-completion-time order. This is not the paper's literal
// "lowest ECT first" rule: a commit invalidates only the cached ECTs of
// tasks on the same node, and a re-evaluated task commits if it is
// within commitSlack of the heap top (DESIGN §14 measures the
// difference).
func (e *executor) run() (*ExecStats, error) {
	// Pre-staging ops (e.g. DataLeastLoaded replicas) commit first so
	// every task sees the extra copies.
	for _, op := range e.plan.PreStage {
		if _, held := e.committedAt(op.Dest, op.File); held {
			continue // already there
		}
		e.curTask = -1 // journaled as planner-directed pre-staging
		e.bumpEpoch()
		src, srcAt := -1, 0.0
		if at, held := e.committedAt(op.Src, op.File); op.Kind == Replica && !e.st.P.DisableReplication && held {
			src, srcAt = op.Src, at
		}
		if _, err := newCommitEnv(e).transfer(op.File, src, op.Dest, srcAt); err != nil {
			// Pre-staging is a best-effort optimization: a fault-aborted
			// op is simply skipped (tasks re-stage on demand).
			var fa *faultAbort
			if errors.As(err, &fa) {
				continue
			}
			return nil, err
		}
	}

	// Cached ECTs are invalidated per compute node: committing a task
	// on node c changes c's port schedule (and marginally the storage
	// ports), so only tasks mapped to c re-evaluate; tasks elsewhere
	// keep slightly stale estimates. Together with a small relative
	// commit tolerance for near-tied candidates this keeps ordering
	// cost near O(T·files) instead of O(T²·files) on large
	// sub-batches.
	h := make(ectHeap, 0, len(e.plan.Tasks))
	nodeVer := make([]int, len(e.computeTL))
	for _, t := range e.plan.Tasks {
		ect, err := e.scheduleTask(t, false)
		if err != nil {
			return nil, err
		}
		h.push(ectEntry{task: t, ect: ect, ver: 0})
	}
	const commitSlack = 1.01
	for len(h) > 0 {
		top := h.pop()
		node := e.plan.Node[top.task]
		if top.ver != nodeVer[node] {
			e.stats.ECTReevals++
			ect, err := e.scheduleTask(top.task, false)
			if err != nil {
				return nil, err
			}
			if len(h) > 0 && ect > h[0].ect*commitSlack+1e-12 {
				h.push(ectEntry{task: top.task, ect: ect, ver: nodeVer[node]})
				continue
			}
		}
		e.drainLeft = len(h)
		if _, err := e.scheduleTask(top.task, true); err != nil {
			var fa *faultAbort
			if errors.As(err, &fa) {
				// Injected fault killed the commit: the task stays
				// pending and is handed back for a later sub-batch.
				e.requeued = append(e.requeued, top.task)
				e.stats.RequeuedTasks++
				nodeVer[node]++
				if j := e.st.J; j.Enabled() {
					j.Emit(journal.Event{T: e.base() + fa.at, Kind: journal.KindFault, Round: e.round,
						Fault: &journal.Fault{Class: journal.FaultRequeue, Node: fa.node,
							Task: int(top.task), File: -1, Detail: fa.reason}})
				}
				continue
			}
			return nil, err
		}
		nodeVer[node]++
	}

	e.stats.Makespan = gantt.Makespan(e.computeTL)
	for _, tl := range e.storageTL {
		e.stats.StorageBusy += tl.BusyTime()
	}
	for _, tl := range e.computeTL {
		e.stats.ComputeBusy += tl.BusyTime()
	}
	for n := range e.computeTL {
		abs := e.inj.CrashTime(n)
		if e.crashSeen[n] || abs < e.base()+e.stats.Makespan {
			// The crash fell inside this sub-batch (or visibly
			// interrupted work): the node loses its disk cache and
			// reboots empty at the boundary.
			dropped := e.st.DropNode(n)
			e.inj.ConsumeCrash(n)
			e.stats.Crashes++
			if j := e.st.J; j.Enabled() {
				j.Emit(journal.Event{T: math.Min(abs, e.base()+e.stats.Makespan),
					Kind: journal.KindFault, Round: e.round,
					Fault: &journal.Fault{Class: journal.FaultCrash, Node: n, Task: -1, File: -1,
						Detail: fmt.Sprintf("node crashed; %d cached file copies lost, reboots empty", dropped)}})
			}
		}
	}
	e.st.Clock += e.stats.Makespan
	return &e.stats, nil
}
