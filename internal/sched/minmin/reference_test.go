package minmin

import (
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
)

// reference is the reference core.Scheduler for the equivalence tests:
// a Scheduler whose PlanSubBatch is planNaive.
type reference struct{ Scheduler }

// PlanSubBatch implements core.Scheduler with the reference planner.
func (r *reference) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	return r.planNaive(st, pending)
}

// planNaive is the reference implementation: a full T×C matrix of
// completion estimates, refreshed after every placement (the changed
// node's column for everyone, full rows for tasks sharing a file that
// just gained its first cluster copy), with an O(T·C) argmin per round.
func (s *Scheduler) planNaive(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	m := newMMState(st)
	b, C := m.b, m.C

	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}
	unsched := append([]batch.TaskID(nil), pending...)

	// mct[idx][i] caches the completion estimate of unsched[idx] on
	// node i; only the column of the node that changed is refreshed
	// after each assignment.
	mct := make([][]float64, len(unsched))
	fit := make([][]bool, len(unsched))
	for idx, k := range unsched {
		mct[idx] = make([]float64, C)
		fit[idx] = make([]bool, C)
		for i := 0; i < C; i++ {
			e, extra := m.ect(k, i)
			mct[idx][i] = e
			fit[idx][i] = extra <= m.free[i]
		}
	}
	done := make([]bool, len(unsched))
	remaining := len(unsched)

	for remaining > 0 {
		bestIdx, bestNode := -1, -1
		bestT := math.Inf(1)
		for idx := range unsched {
			if done[idx] {
				continue
			}
			for i := 0; i < C; i++ {
				if fit[idx][i] && mct[idx][i] < bestT {
					bestT = mct[idx][i]
					bestIdx, bestNode = idx, i
				}
			}
		}
		if bestIdx < 0 {
			break // nothing fits: close the sub-batch
		}
		k := unsched[bestIdx]
		done[bestIdx] = true
		remaining--
		var cands []journal.Candidate
		if st.J.Enabled() {
			cands = make([]journal.Candidate, C)
			for i := 0; i < C; i++ {
				cands[i] = journal.Candidate{Node: i, Score: mct[bestIdx][i], Fits: fit[bestIdx][i]}
			}
		}
		staged, first := m.place(st, plan, k, bestNode, bestT, cands)
		firstCopy := false
		for _, fc := range first {
			firstCopy = firstCopy || fc
		}
		// Refresh the changed node's column for everyone; tasks that
		// share a file which just gained its first cluster copy see a
		// cheaper replica path on every node, so refresh those rows
		// fully.
		for idx, kk := range unsched {
			if done[idx] {
				continue
			}
			full := false
			if firstCopy {
				for _, f := range b.Tasks[kk].Files {
					for si, sf := range staged {
						if first[si] && sf == f {
							full = true
						}
					}
					if full {
						break
					}
				}
			}
			lo, hi := bestNode, bestNode
			if full {
				lo, hi = 0, C-1
			}
			for i := lo; i <= hi; i++ {
				ee, ex := m.ect(kk, i)
				mct[idx][i] = ee
				fit[idx][i] = ex <= m.free[i]
			}
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("minmin: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}
