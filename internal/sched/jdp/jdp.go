// Package jdp implements the paper's second baseline: a batch-mode
// variant of Ranganathan and Foster's decoupled scheme, combining the
// Job Data Present scheduling policy with the Data Least Loaded
// replication heuristic (§3).
//
// Scheduling (Job Data Present, batch-adapted): tasks are taken in
// order of least expected earliest completion time (the paper's
// adaptation — a plain FIFO is meaningless when the whole batch
// arrives at once) and each is assigned to the node expected to stage
// its data cheapest — the node holding the largest fraction of its
// input bytes; ties go to the least-loaded node.
//
// Replication (Data Least Loaded, decoupled): the daemon tracks file
// popularity (pending accesses); when a file's popularity exceeds a
// threshold, a replica is pushed to the least-loaded compute node.
// These replicas are expressed as PreStage operations, executed by the
// runtime stage before task-driven staging.
//
// Eviction is LRU, as the paper specifies for this baseline.
//
// The planner keeps a first-holder index maintained at every
// holds-matrix write instead of scanning every node for a copy on each
// staging-cost probe — exact, because holds are never cleared within a
// plan, so the minimum holder index can only decrease, matching the
// ascending scan's answer — and precomputes per-task input bytes. The
// O(T·C²·F) reference that rescans lives in reference_test.go; it
// performs the identical float operations in the identical order, and
// the equivalence tests pin the two planners' journals byte-for-byte.
package jdp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/obs/journal"
)

// Scheduler is the JobDataPresent + DataLeastLoaded baseline.
type Scheduler struct {
	// PopularityThreshold is the pending-access count beyond which the
	// replication daemon copies a file. New sets 3; zero makes every
	// file with a pending access a candidate.
	PopularityThreshold int
	// MaxReplicasPerRound caps daemon replications per sub-batch so
	// pre-staging cannot flood the cluster. New sets 8; zero turns the
	// replication daemon off.
	MaxReplicasPerRound int
}

// New returns a JDP scheduler with the default daemon settings.
func New() *Scheduler { return &Scheduler{PopularityThreshold: 3, MaxReplicasPerRound: 8} }

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "JobDataPresent" }

// Evict implements core.Scheduler with LRU, per the paper.
func (s *Scheduler) Evict(st *core.State, pending []batch.TaskID) {
	eviction.LRU(st, pending)
}

// PlanSubBatch implements core.Scheduler.
func (s *Scheduler) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	p := st.P
	b := p.Batch
	C := p.Platform.NumCompute()
	F := b.NumFiles()

	holds := st.PresentMatrix()
	free := make([]int64, C)
	load := make([]float64, C)
	for i := 0; i < C; i++ {
		free[i] = st.Free(i)
	}
	bwRemote := make([]float64, C)
	for i := 0; i < C; i++ {
		bw := math.Inf(1)
		for sn := range p.Platform.Storage {
			bw = math.Min(bw, p.Platform.RemoteBW(sn, i))
		}
		bwRemote[i] = bw
	}
	bwReplica := p.Platform.MinReplicaBW()

	// firstHolder[f] is the least node index holding f, or -1. Holds
	// are never cleared inside a plan, so every write is holds[x][f] =
	// true and the minimum can only decrease: maintaining it at each
	// write reproduces the reference's ascending anyCopy scan exactly.
	firstHolder := make([]int32, F)
	for f := range firstHolder {
		firstHolder[f] = -1
	}
	st.EachCopy(func(i int, f batch.FileID) {
		if firstHolder[f] < 0 {
			firstHolder[f] = int32(i) // i ascends within f
		}
	})
	setHold := func(i int, f batch.FileID) {
		holds[i][f] = true
		if firstHolder[f] < 0 || int32(i) < firstHolder[f] {
			firstHolder[f] = int32(i)
		}
	}

	stageCost := func(k batch.TaskID, i int) (float64, int64) {
		cost := 0.0
		var extra int64
		for _, f := range b.Tasks[k].Files {
			if holds[i][f] {
				continue
			}
			size := b.FileSize(f)
			extra += size
			if firstHolder[f] >= 0 && !p.DisableReplication {
				cost += float64(size) / bwReplica
			} else {
				cost += float64(size) / bwRemote[i]
			}
		}
		return cost, extra
	}
	taskBytes := make([]int64, len(b.Tasks))
	for k := range b.Tasks {
		taskBytes[k] = b.TaskBytes(batch.TaskID(k))
	}
	execTime := func(k batch.TaskID, i int) float64 {
		return float64(taskBytes[k])/p.Platform.Compute[i].LocalReadBW + b.Tasks[k].Compute
	}

	// Order tasks once by their static least expected completion time;
	// the key lives in a slice (task IDs index the batch) rather than a
	// map so the sort comparator stays allocation- and hash-free.
	order := append([]batch.TaskID(nil), pending...)
	key := make([]float64, len(b.Tasks))
	for _, k := range order {
		best := math.Inf(1)
		for i := 0; i < C; i++ {
			c, _ := stageCost(k, i)
			if v := c + execTime(k, i); v < best {
				best = v
			}
		}
		key[k] = best
	}
	sort.Slice(order, func(a, z int) bool {
		if key[order[a]] != key[order[z]] {
			return key[order[a]] < key[order[z]]
		}
		return order[a] < order[z]
	})

	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}

	replicas := 0
	if !p.DisableReplication && s.MaxReplicasPerRound > 0 {
		type pop struct {
			f batch.FileID
			n int
		}
		var pops []pop
		for f := 0; f < F; f++ {
			fid := batch.FileID(f)
			if n := st.AccessFreq(fid); n > s.PopularityThreshold {
				pops = append(pops, pop{fid, n})
			}
		}
		sort.Slice(pops, func(a, z int) bool {
			if pops[a].n != pops[z].n {
				return pops[a].n > pops[z].n
			}
			return pops[a].f < pops[z].f
		})
		for _, pe := range pops {
			if replicas >= s.MaxReplicasPerRound {
				break
			}
			dest := -1
			for i := 0; i < C; i++ {
				if holds[i][pe.f] || free[i] < b.FileSize(pe.f) {
					continue
				}
				if dest < 0 || free[i] > free[dest] {
					dest = i
				}
			}
			if dest < 0 {
				continue
			}
			op := core.Staging{File: pe.f, Dest: dest, Kind: core.Remote}
			if src := firstHolder[pe.f]; src >= 0 {
				op.Kind = core.Replica
				op.Src = int(src)
			}
			plan.PreStage = append(plan.PreStage, op)
			if st.J.Enabled() {
				src := -1
				if op.Kind == core.Replica {
					src = op.Src
				}
				st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindReplicate, Round: st.JRound,
					Replicate: &journal.Replicate{File: int(pe.f), Dest: dest, Src: src,
						Policy: "data-least-loaded", Popularity: pe.n, Threshold: s.PopularityThreshold,
						Reason: "pending accesses exceed threshold; replica pushed to emptiest eligible disk"}})
			}
			setHold(dest, pe.f)
			free[dest] -= b.FileSize(pe.f)
			replicas++
		}
	}

	for _, k := range order {
		best, bestCost, bestLoad := -1, math.Inf(1), math.Inf(1)
		var bestExtra int64
		var cands []journal.Candidate
		if st.J.Enabled() {
			cands = make([]journal.Candidate, 0, C)
		}
		for i := 0; i < C; i++ {
			c, extra := stageCost(k, i)
			if cands != nil {
				cands = append(cands, journal.Candidate{Node: i, Score: c, Fits: extra <= free[i]})
			}
			if extra > free[i] {
				continue
			}
			if c < bestCost-1e-12 || (c < bestCost+1e-12 && load[i] < bestLoad) {
				best, bestCost, bestLoad, bestExtra = i, c, load[i], extra
			}
		}
		if best < 0 {
			continue // does not fit this round; later sub-batch
		}
		plan.Tasks = append(plan.Tasks, k)
		plan.Node[k] = best
		if st.J.Enabled() {
			st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlace, Round: st.JRound,
				Place: &journal.Place{Task: int(k), Node: best, Policy: "jdp-data-present",
					Score: bestCost, Candidates: cands,
					Reason: "cheapest expected staging cost (most input bytes present); ties to least-loaded node"}})
		}
		// bestExtra was computed on the state the decision saw; holds
		// have not changed since, so it equals stageCost(k, best)'s
		// extra (the bytes are an exact integer sum either way).
		free[best] -= bestExtra
		load[best] += bestCost + execTime(k, best)
		for _, f := range b.Tasks[k].Files {
			setHold(best, f)
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("jdp: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}
