package ipsched

import (
	"fmt"
	"math"

	"repro/internal/mip"
)

// buildSelectionModel encodes the stage-1 sub-batch-selection IP
// (Eq. 14–20): maximize the number of allocated tasks such that every
// allocated task's files fit its node (15), per-node disk capacity
// holds (16), no task is allocated twice (17), and per-node
// computation stays within (1+thresh) of the average (18–20).
func (ins *instance) buildSelectionModel() (*mip.Model, *varIndex) {
	m := mip.NewModel()
	m.SetMaximize()
	C := ins.C
	vi := &varIndex{z: -1}

	vi.t = make([][]int, len(ins.tasks))
	for k := range ins.tasks {
		vi.t[k] = make([]int, C)
		for i := 0; i < C; i++ {
			vi.t[k][i] = m.AddBinary(fmt.Sprintf("T_%d_%d", k, i), 1)
		}
		// (17): at most one node (allocation is optional here).
		terms := make([]mip.Term, C)
		for i := 0; i < C; i++ {
			terms[i] = mip.Term{Var: vi.t[k][i], Coef: 1}
		}
		m.AddRow(fmt.Sprintf("atmost_%d", k), terms, mip.LE, 1)
	}
	vi.x = make([][]int, len(ins.classes))
	for l := range ins.classes {
		cl := &ins.classes[l]
		vi.x[l] = make([]int, C)
		for i := 0; i < C; i++ {
			if cl.present[i] {
				vi.x[l][i] = m.AddVar(fmt.Sprintf("X_%d_%d", l, i), 1, 1, 0, true)
			} else {
				vi.x[l][i] = m.AddBinary(fmt.Sprintf("X_%d_%d", l, i), 0)
			}
		}
	}
	// (15): allocation implies storage.
	for k := range ins.tasks {
		for i := 0; i < C; i++ {
			for _, l := range ins.access[k] {
				if ins.classes[l].present[i] {
					continue
				}
				m.AddRow("need", []mip.Term{{Var: vi.t[k][i], Coef: 1}, {Var: vi.x[l][i], Coef: -1}}, mip.LE, 0)
			}
		}
	}
	// (16): disk capacity per node.
	for i := 0; i < C; i++ {
		free := ins.st.Free(i)
		if free >= 1<<61 {
			continue
		}
		var terms []mip.Term
		for l := range ins.classes {
			if !ins.classes[l].present[i] {
				terms = append(terms, mip.Term{Var: vi.x[l][i], Coef: float64(ins.classes[l].size)})
			}
		}
		if len(terms) > 0 {
			m.AddRow(fmt.Sprintf("disk_%d", i), terms, mip.LE, float64(free))
		}
	}
	// (18)–(20): per-node computation within (1+thresh) of the mean.
	// C·Comp_i ≤ (1+thresh)·Σ_j Comp_j, linearized per node.
	for i := 0; i < C; i++ {
		var terms []mip.Term
		for k := range ins.tasks {
			comp := ins.st.P.Batch.Tasks[ins.tasks[k]].Compute
			for j := 0; j < C; j++ {
				coef := -(1 + thresh) * comp
				if j == i {
					coef += float64(C) * comp
				}
				if math.Abs(coef) > 0 {
					terms = append(terms, mip.Term{Var: vi.t[k][j], Coef: coef})
				}
			}
		}
		if len(terms) > 0 {
			m.AddRow(fmt.Sprintf("balance_%d", i), terms, mip.LE, 0)
		}
	}
	return m, vi
}

// selectionWarmStart returns the trivial feasible point of the
// selection model — nothing allocated, only the fixed placements set —
// guaranteeing branch and bound always holds an incumbent.
func (ins *instance) selectionWarmStart(m *mip.Model, vi *varIndex) []float64 {
	x := make([]float64, m.NumVars())
	for l := range ins.classes {
		for i := 0; i < ins.C; i++ {
			if ins.classes[l].present[i] {
				x[vi.x[l][i]] = 1
			}
		}
	}
	return x
}
