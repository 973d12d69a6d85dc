// Package ipsched implements the paper's 0-1 Integer Programming
// scheduler (§4): a coupled formulation of task allocation and file
// placement (remote transfers R, compute-to-compute replications Y,
// placements X, assignments T) minimizing the batch execution time,
// solved with the internal/mip branch-and-bound solver (the lp_solve
// substitute).
//
// Unlimited disk (§4.1) solves the one-shot allocation IP; limited
// disk (§4.2) runs the two-stage loop — a sub-batch-selection IP
// picking a maximal, load-balanced, disk-feasible task subset, then
// the allocation IP on that subset with per-node disk rows — with the
// §4.3 popularity eviction between sub-batches.
//
// Two value-preserving reductions keep the models tractable for a
// pure-Go solver: files required by exactly the same task set (and
// with the same current placement) collapse into super-files, and the
// replication linking constraints (1) and (2) are aggregated per
// (i,ℓ) and (j,ℓ) rather than written per (i,j,ℓ) (weaker LP bound,
// identical integer feasible set).
package ipsched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/mip"
)

// fileClass is a super-file: original files with identical requiring
// task sets (within the sub-batch) and identical current placements.
type fileClass struct {
	members []batch.FileID
	size    int64
	req     []int  // indices into the sub-batch task slice
	present []bool // per compute node
}

// instance is a prepared allocation-IP instance.
type instance struct {
	st      *core.State
	tasks   []batch.TaskID
	classes []fileClass
	access  [][]int // per task: class indices

	C     int       // compute nodes
	tRem  float64   // seconds per byte, remote
	tRep  float64   // seconds per byte, replica
	execT []float64 // per task: compute + local read seconds (node 0 basis)
}

// buildInstance groups the sub-batch's files into classes and
// precomputes cost coefficients.
func buildInstance(st *core.State, tasks []batch.TaskID) *instance {
	b := st.P.Batch
	C := st.P.Platform.NumCompute()
	idx := make(map[batch.TaskID]int, len(tasks))
	for i, t := range tasks {
		idx[t] = i
	}
	type key struct {
		req     string
		present string
	}
	classOf := make(map[key]int)
	ins := &instance{st: st, tasks: tasks, C: C}
	ins.access = make([][]int, len(tasks))

	// Collect files used by the sub-batch with their local require
	// sets.
	reqOf := make(map[batch.FileID][]int)
	for i, t := range tasks {
		for _, f := range b.Tasks[t].Files {
			reqOf[f] = append(reqOf[f], i)
		}
	}
	files := make([]batch.FileID, 0, len(reqOf))
	for f := range reqOf {
		files = append(files, f)
	}
	sort.Slice(files, func(a, z int) bool { return files[a] < files[z] })
	for _, f := range files {
		req := reqOf[f]
		rk := make([]byte, 0, len(req)*4)
		for _, r := range req {
			rk = append(rk, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		pres := make([]bool, C)
		pk := make([]byte, C)
		for i := 0; i < C; i++ {
			if st.Holds(i, f) {
				pres[i] = true
				pk[i] = 1
			}
		}
		k := key{req: string(rk), present: string(pk)}
		ci, ok := classOf[k]
		if !ok {
			ci = len(ins.classes)
			classOf[k] = ci
			ins.classes = append(ins.classes, fileClass{req: req, present: pres})
		}
		c := &ins.classes[ci]
		c.members = append(c.members, f)
		c.size += b.FileSize(f)
	}
	for ci := range ins.classes {
		for _, k := range ins.classes[ci].req {
			ins.access[k] = append(ins.access[k], ci)
		}
	}
	ins.tRem = 1 / st.P.Platform.MinRemoteBW()
	ins.tRep = 1 / st.P.Platform.MinReplicaBW()
	ins.execT = make([]float64, len(tasks))
	for i, t := range tasks {
		ins.execT[i] = b.Tasks[t].Compute + float64(b.TaskBytes(t))/st.P.Platform.Compute[0].LocalReadBW
	}
	return ins
}

// varIndex tracks the model's variable layout for extraction.
type varIndex struct {
	z int
	t [][]int   // [task][node]
	x [][]int   // [class][node]; -1 when fixed-present
	r [][]int   // [class][node]; -1 when disallowed
	y [][][]int // [class][src][dst]; -1 when disallowed
}

// buildAllocationModel encodes §4.1's IP (with the §4.2 disk rows) for
// the instance.
func (ins *instance) buildAllocationModel() (*mip.Model, *varIndex) {
	m := mip.NewModel()
	C := ins.C
	noRep := ins.st.P.DisableReplication
	vi := &varIndex{}
	vi.z = m.AddVar("z", 0, math.Inf(1), 1, false)

	vi.t = make([][]int, len(ins.tasks))
	for k := range ins.tasks {
		vi.t[k] = make([]int, C)
		for i := 0; i < C; i++ {
			vi.t[k][i] = m.AddBinary(fmt.Sprintf("T_%d_%d", k, i), 0)
		}
		// (6) each task on exactly one node.
		terms := make([]mip.Term, C)
		for i := 0; i < C; i++ {
			terms[i] = mip.Term{Var: vi.t[k][i], Coef: 1}
		}
		m.AddRow(fmt.Sprintf("assign_%d", k), terms, mip.EQ, 1)
	}

	vi.x = make([][]int, len(ins.classes))
	vi.r = make([][]int, len(ins.classes))
	vi.y = make([][][]int, len(ins.classes))
	for l := range ins.classes {
		cl := &ins.classes[l]
		vi.x[l] = make([]int, C)
		vi.r[l] = make([]int, C)
		vi.y[l] = make([][]int, C)
		for i := 0; i < C; i++ {
			vi.y[l][i] = make([]int, C)
			for j := range vi.y[l][i] {
				vi.y[l][i][j] = -1
			}
		}
		for i := 0; i < C; i++ {
			if cl.present[i] {
				vi.x[l][i] = m.AddVar(fmt.Sprintf("X_%d_%d", l, i), 1, 1, 0, true)
				vi.r[l][i] = -1
			} else {
				vi.x[l][i] = m.AddBinary(fmt.Sprintf("X_%d_%d", l, i), 0)
				vi.r[l][i] = m.AddBinary(fmt.Sprintf("R_%d_%d", l, i), 0)
			}
		}
		if !noRep {
			for i := 0; i < C; i++ {
				for j := 0; j < C; j++ {
					if i == j || cl.present[j] {
						continue // no replica into a node already holding it
					}
					vi.y[l][i][j] = m.AddBinary(fmt.Sprintf("Y_%d_%d_%d", l, i, j), 0)
				}
			}
		}

		for i := 0; i < C; i++ {
			// (1) aggregated per source i: replicate out of i only if
			// i stores the class.
			if !noRep {
				var terms []mip.Term
				for j := 0; j < C; j++ {
					if vi.y[l][i][j] >= 0 {
						terms = append(terms, mip.Term{Var: vi.y[l][i][j], Coef: 1})
					}
				}
				if len(terms) > 0 {
					terms = append(terms, mip.Term{Var: vi.x[l][i], Coef: -float64(C - 1)})
					m.AddRow("link1a", terms, mip.LE, 0)
				}
			}
			// (4): storage on a non-present node comes from exactly its
			// transfers (equality also enforces (3) and (5) given X ≤ 1).
			if !cl.present[i] {
				terms := []mip.Term{{Var: vi.x[l][i], Coef: 1}, {Var: vi.r[l][i], Coef: -1}}
				for j := 0; j < C; j++ {
					if vi.y[l][j][i] >= 0 {
						terms = append(terms, mip.Term{Var: vi.y[l][j][i], Coef: -1})
					}
				}
				m.AddRow("storage", terms, mip.EQ, 0)
			}
		}
		if !noRep {
			// (2) aggregated per destination j: replicate into j only
			// if a task needing the class runs there.
			for j := 0; j < C; j++ {
				var terms []mip.Term
				for i := 0; i < C; i++ {
					if vi.y[l][i][j] >= 0 {
						terms = append(terms, mip.Term{Var: vi.y[l][i][j], Coef: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				for _, k := range cl.req {
					terms = append(terms, mip.Term{Var: vi.t[k][j], Coef: -1})
				}
				m.AddRow("link2a", terms, mip.LE, 0)
			}
		}
		// (8): classes with no copy anywhere need ≥1 remote transfer.
		anyPresent := false
		for i := 0; i < C; i++ {
			if cl.present[i] {
				anyPresent = true
			}
		}
		if !anyPresent {
			var terms []mip.Term
			for i := 0; i < C; i++ {
				if vi.r[l][i] >= 0 {
					terms = append(terms, mip.Term{Var: vi.r[l][i], Coef: 1})
				}
			}
			m.AddRow("retrieve", terms, mip.GE, 1)
		}
	}

	// (7): a task's node stores each of its classes, one row per
	// (task, node, class). These rows carry most of the LP bound and
	// stay linear in the pin count.
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

	// Disk capacity (Eq. 21): newly staged classes fit the free space.
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

	// Makespan rows (Eq. 9–12): z ≥ replication + remote + computation.
	for i := 0; i < C; i++ {
		terms := []mip.Term{{Var: vi.z, Coef: -1}}
		for l := range ins.classes {
			sz := float64(ins.classes[l].size)
			if vi.r[l][i] >= 0 {
				terms = append(terms, mip.Term{Var: vi.r[l][i], Coef: ins.tRem * sz})
			}
			for j := 0; j < C; j++ {
				if vi.y[l][j][i] >= 0 { // incoming
					terms = append(terms, mip.Term{Var: vi.y[l][j][i], Coef: ins.tRep * sz})
				}
				if vi.y[l][i][j] >= 0 { // outgoing
					terms = append(terms, mip.Term{Var: vi.y[l][i][j], Coef: ins.tRep * sz})
				}
			}
		}
		for k := range ins.tasks {
			terms = append(terms, mip.Term{Var: vi.t[k][i], Coef: ins.execT[k]})
		}
		m.AddRow(fmt.Sprintf("makespan_%d", i), terms, mip.LE, 0)
	}
	return m, vi
}

// warmStart converts a feasible assignment (task index → node) into a
// full variable vector for the allocation model: the first needing
// node of an absent class performs the remote transfer; other needing
// nodes replicate from it (or from a node already holding the class);
// with replication disabled every needing node pulls remotely.
func (ins *instance) warmStart(m *mip.Model, vi *varIndex, nodeOf []int) []float64 {
	x := make([]float64, m.NumVars())
	C := ins.C
	noRep := ins.st.P.DisableReplication
	for k := range ins.tasks {
		x[vi.t[k][nodeOf[k]]] = 1
	}
	load := make([]float64, C)
	for k := range ins.tasks {
		load[nodeOf[k]] += ins.execT[k]
	}
	for l := range ins.classes {
		cl := &ins.classes[l]
		needed := map[int]bool{}
		for _, k := range cl.req {
			if !cl.present[nodeOf[k]] {
				needed[nodeOf[k]] = true
			}
		}
		for i := 0; i < C; i++ {
			if cl.present[i] {
				x[vi.x[l][i]] = 1
			}
		}
		if len(needed) == 0 {
			continue
		}
		srcPresent := -1
		for i := 0; i < C; i++ {
			if cl.present[i] {
				srcPresent = i
				break
			}
		}
		dests := make([]int, 0, len(needed))
		for i := range needed {
			dests = append(dests, i)
		}
		sort.Ints(dests)
		sz := float64(cl.size)
		if noRep {
			for _, i := range dests {
				x[vi.x[l][i]] = 1
				x[vi.r[l][i]] = 1
				load[i] += ins.tRem * sz
			}
			continue
		}
		origin := srcPresent
		rest := dests
		if origin < 0 {
			origin = dests[0]
			x[vi.x[l][origin]] = 1
			x[vi.r[l][origin]] = 1
			load[origin] += ins.tRem * sz
			rest = dests[1:]
		}
		for _, i := range rest {
			x[vi.x[l][i]] = 1
			x[vi.y[l][origin][i]] = 1
			load[origin] += ins.tRep * sz
			load[i] += ins.tRep * sz
		}
	}
	z := 0.0
	for i := 0; i < C; i++ {
		if load[i] > z {
			z = load[i]
		}
	}
	x[vi.z] = z
	return x
}

// extractPlan converts an allocation-model solution into a pinned
// SubPlan, expanding file classes back to their member files.
func (ins *instance) extractPlan(vi *varIndex, x []float64) *core.SubPlan {
	plan := &core.SubPlan{Node: make(map[batch.TaskID]int), Pinned: true}
	on := func(v int) bool { return v >= 0 && x[v] > 0.5 }
	for k, t := range ins.tasks {
		for i := 0; i < ins.C; i++ {
			if on(vi.t[k][i]) {
				plan.Tasks = append(plan.Tasks, t)
				plan.Node[t] = i
				break
			}
		}
	}
	for l := range ins.classes {
		cl := &ins.classes[l]
		for i := 0; i < ins.C; i++ {
			if on := vi.r[l][i] >= 0 && x[vi.r[l][i]] > 0.5; on {
				for _, f := range cl.members {
					plan.Staging = append(plan.Staging, core.Staging{File: f, Dest: i, Kind: core.Remote})
				}
			}
			for j := 0; j < ins.C; j++ {
				if vi.y[l][i][j] >= 0 && x[vi.y[l][i][j]] > 0.5 {
					for _, f := range cl.members {
						plan.Staging = append(plan.Staging, core.Staging{File: f, Dest: j, Kind: core.Replica, Src: i})
					}
				}
			}
		}
	}
	return plan
}
