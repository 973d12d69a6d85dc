package ipsched

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/mip"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/sched/bipart"
)

// DefaultNodeBudget is the NodeBudget New sets: the full-scale
// experiments' budget (see EXPERIMENTS.md for its calibration).
const DefaultNodeBudget = 10

// dives is the size of every IP solve's branch-and-bound portfolio. It
// is a constant, so the worker count never changes a schedule.
const dives = 4

// thresh is the load-balance tolerance of the selection stage
// (Eq. 18): each node's computation stays within (1+thresh) of the
// mean.
const thresh = 0.5

// Scheduler is the 0-1 IP scheduler of §4.
type Scheduler struct {
	// NodeBudget caps the branch-and-bound nodes each portfolio dive
	// of an allocation IP solve explores; a sub-batch-selection solve
	// gets half. The incumbent at the limit is used. It is the only IP
	// budget, so a schedule is the same on any machine. New sets
	// DefaultNodeBudget; ≤ 0 means DefaultNodeBudget too.
	NodeBudget int
	// Seed drives the warm-start heuristic's partitioner.
	Seed int64
	// Workers is the parallelism of the warm-start partitioner (≤ 0 =
	// GOMAXPROCS, 1 = sequential). It never changes a schedule: the
	// partitioner is worker-invariant and every IP solve runs a fixed
	// portfolio of dives.
	Workers int
}

// New returns an IP scheduler with the default budget.
func New(seed int64) *Scheduler {
	return &Scheduler{NodeBudget: DefaultNodeBudget, Seed: seed}
}

// nodeLimit returns the per-dive node limit of an allocation solve; a
// selection solve gets half.
func (s *Scheduler) nodeLimit() int {
	if s.NodeBudget <= 0 {
		return DefaultNodeBudget
	}
	return s.NodeBudget
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "IP" }

// Evict implements core.Scheduler using the §4.3 popularity policy.
func (s *Scheduler) Evict(st *core.State, pending []batch.TaskID) {
	eviction.Popularity(st, pending)
}

// PlanSubBatch implements core.Scheduler: sub-batch selection (stage
// 1, skipped when everything fits) followed by the allocation IP
// (stage 2).
func (s *Scheduler) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	sub := pending
	if st.P.Batch.TotalUniqueBytes(pending) > st.AggregateFree() {
		var err error
		sub, err = s.selectSubBatch(st, pending)
		if err != nil {
			return nil, err
		}
	}
	return s.allocate(st, sub)
}

// allocate runs the §4.1 allocation IP on the sub-batch. If the
// model is infeasible (the fallback selector only guarantees an
// aggregate fit, not a per-node packing), the largest-working-set task
// is deferred and the model retried.
func (s *Scheduler) allocate(st *core.State, sub []batch.TaskID) (*core.SubPlan, error) {
	for {
		plan, err := s.allocateOnce(st, sub)
		if err == nil || len(sub) <= 1 {
			return plan, err
		}
		worst, worstBytes := -1, int64(-1)
		for i, t := range sub {
			if n := st.P.Batch.TaskBytes(t); n > worstBytes {
				worst, worstBytes = i, n
			}
		}
		sub = append(append([]batch.TaskID(nil), sub[:worst]...), sub[worst+1:]...)
	}
}

func (s *Scheduler) allocateOnce(st *core.State, sub []batch.TaskID) (*core.SubPlan, error) {
	ins := buildInstance(st, sub)
	m, vi := ins.buildAllocationModel()
	opt := mip.Options{NodeLimit: s.nodeLimit(), Workers: dives, Trace: st.Trace}
	if nodeOf, ok := s.heuristicAssignment(st, sub); ok {
		opt.WarmStart = ins.warmStart(m, vi, nodeOf)
	}
	endSolve := st.Trace.Span(obs.TrackSched, "ipsched", "allocation IP",
		obs.A("tasks", len(sub)), obs.A("warm_start", opt.WarmStart != nil))
	sol, err := m.Solve(opt)
	if err == nil {
		endSolve(obs.A("status", sol.Status.String()), obs.A("nodes", sol.Nodes))
	} else {
		endSolve()
	}
	if err != nil {
		return nil, fmt.Errorf("ipsched: allocation model: %w", err)
	}
	if sol.Status == mip.Infeasible || sol.Status == mip.NoSolution {
		return nil, fmt.Errorf("ipsched: allocation IP %v for sub-batch of %d tasks", sol.Status, len(sub))
	}
	x := sol.X
	objX := sol.Obj
	if sol.Status != mip.Optimal && ins.C <= 60 {
		// Budget ran out before optimality: polish the incumbent's
		// assignment on the IP objective (solver-side primal
		// heuristic; see polish.go).
		nodeOf := make([]int, len(sub))
		for k := range ins.tasks {
			for i := 0; i < ins.C; i++ {
				if x[vi.t[k][i]] > 0.5 {
					nodeOf[k] = i
					break
				}
			}
		}
		polished := ins.polish(nodeOf, 8)
		px := ins.warmStart(m, vi, polished)
		if pObj, ok := m.CheckFeasible(px, 1e-6); ok && pObj < objX-1e-9 {
			x = px
		}
	}
	plan := ins.extractPlan(vi, x)
	if st.J.Enabled() {
		reason := fmt.Sprintf("0-1 allocation IP (status %s, %d branch-and-bound nodes); task-node and staging variables fixed jointly", sol.Status, sol.Nodes)
		for _, t := range plan.Tasks {
			st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlace, Round: st.JRound,
				Place: &journal.Place{Task: int(t), Node: plan.Node[t], Policy: "ip-allocation",
					Reason: reason}})
		}
		for _, op := range plan.Staging {
			src := -1
			if op.Kind == core.Replica {
				src = op.Src
			}
			st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindReplicate, Round: st.JRound,
				Replicate: &journal.Replicate{File: int(op.File), Dest: op.Dest, Src: src,
					Policy: "ip-allocation",
					Reason: "pinned by the allocation IP's staging variables"}})
		}
	}
	return plan, nil
}

// heuristicAssignment derives a disk-feasible warm-start assignment
// using the BiPartition mapping machinery on the same sub-batch.
// ok=false when the heuristic cannot place every task (the IP then
// starts cold).
func (s *Scheduler) heuristicAssignment(st *core.State, sub []batch.TaskID) ([]int, bool) {
	bp := bipart.New(s.Seed + 17)
	bp.Workers = s.Workers
	assignMap, err := bp.MapForWarmStart(st, sub)
	if err != nil {
		return nil, false
	}
	nodeOf := make([]int, len(sub))
	for i, t := range sub {
		n, ok := assignMap[t]
		if !ok {
			return nil, false
		}
		nodeOf[i] = n
	}
	return nodeOf, true
}

// selectSubBatch runs the stage-1 IP (Eq. 14–20): maximize the number
// of allocated tasks subject to per-node disk capacity and the
// load-balance tolerance. Falls back to a greedy working-set knapsack
// when the solver returns nothing usable.
func (s *Scheduler) selectSubBatch(st *core.State, pending []batch.TaskID) ([]batch.TaskID, error) {
	ins := buildInstance(st, pending)
	m, vi := ins.buildSelectionModel()
	endSolve := st.Trace.Span(obs.TrackSched, "ipsched", "selection IP",
		obs.A("pending", len(pending)))
	sol, err := m.Solve(mip.Options{NodeLimit: max(1, s.nodeLimit()/2), Workers: dives, WarmStart: ins.selectionWarmStart(m, vi), Trace: st.Trace})
	if err != nil {
		endSolve()
		return nil, fmt.Errorf("ipsched: selection model: %w", err)
	}
	endSolve(obs.A("status", sol.Status.String()), obs.A("nodes", sol.Nodes))
	var sub []batch.TaskID
	if sol.Status == mip.Optimal || sol.Status == mip.Feasible {
		for k, t := range ins.tasks {
			for i := 0; i < ins.C; i++ {
				if sol.X[vi.t[k][i]] > 0.5 {
					sub = append(sub, t)
					break
				}
			}
		}
	}
	if len(sub) == 0 {
		sub = greedySelect(st, pending)
	}
	if len(sub) == 0 {
		return nil, fmt.Errorf("ipsched: no pending task fits the free disk (pending %d)", len(pending))
	}
	return sub, nil
}

// greedySelect packs tasks in descending file-sharing affinity until
// the aggregate free disk is exhausted — the stage-1 fallback.
func greedySelect(st *core.State, pending []batch.TaskID) []batch.TaskID {
	b := st.P.Batch
	free := st.AggregateFree()
	seen := make(map[batch.FileID]bool)
	var used int64
	var sub []batch.TaskID
	// Repeatedly take the task adding the fewest new bytes.
	remaining := append([]batch.TaskID(nil), pending...)
	for len(remaining) > 0 {
		bestIdx := -1
		var bestNew int64
		for idx, t := range remaining {
			var nb int64
			for _, f := range b.Tasks[t].Files {
				if !seen[f] && st.NumCopies(f) == 0 {
					nb += b.FileSize(f)
				}
			}
			if bestIdx < 0 || nb < bestNew {
				bestIdx, bestNew = idx, nb
			}
		}
		if used+bestNew > free && len(sub) > 0 {
			break
		}
		t := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if used+bestNew > free {
			continue // single task too large even alone; try others
		}
		used += bestNew
		sub = append(sub, t)
		for _, f := range b.Tasks[t].Files {
			seen[f] = true
		}
	}
	return batch.SortedCopy(sub)
}
