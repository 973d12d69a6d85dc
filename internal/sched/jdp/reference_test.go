package jdp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
)

// reference is the reference core.Scheduler for the equivalence tests:
// the same Scheduler, with PlanSubBatch routed to planNaive.
type reference struct{ *Scheduler }

// PlanSubBatch implements core.Scheduler with the reference planner.
func (r reference) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	return r.planNaive(st, pending)
}

// arm returns s itself, or its reference twin when naive is set.
func arm(s *Scheduler, naive bool) core.Scheduler {
	if naive {
		return reference{s}
	}
	return s
}

// planNaive is the reference implementation, kept verbatim as the
// equivalence baseline for the first-holder index.
func (s *Scheduler) planNaive(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	p := st.P
	b := p.Batch
	C := p.Platform.NumCompute()

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

	// stageCost estimates the data transfer time for task k on node i
	// plus the new bytes the node must hold.
	anyCopy := func(f batch.FileID) int {
		for i := 0; i < C; i++ {
			if holds[i][f] {
				return i
			}
		}
		return -1
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
			if src := anyCopy(f); src >= 0 && !p.DisableReplication {
				cost += float64(size) / bwReplica
			} else {
				cost += float64(size) / bwRemote[i]
			}
		}
		return cost, extra
	}
	execTime := func(k batch.TaskID, i int) float64 {
		return float64(b.TaskBytes(k))/p.Platform.Compute[i].LocalReadBW + b.Tasks[k].Compute
	}

	// Order tasks once by their static least expected completion time
	// (the paper's batch adaptation of the FIFO queue).
	order := append([]batch.TaskID(nil), pending...)
	key := make(map[batch.TaskID]float64, len(order))
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

	// Data Least Loaded daemon: replicate popular files before
	// assignment. Load is still zero here, so "least loaded" means the
	// emptiest disk at this point; popularity counts pending accesses.
	replicas := 0
	if !p.DisableReplication && s.MaxReplicasPerRound > 0 {
		type pop struct {
			f batch.FileID
			n int
		}
		var pops []pop
		for f := 0; f < b.NumFiles(); f++ {
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
			// Least-loaded node not yet holding the file, with space.
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
			if src := anyCopy(pe.f); src >= 0 {
				op.Kind = core.Replica
				op.Src = src
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
			holds[dest][pe.f] = true
			free[dest] -= b.FileSize(pe.f)
			replicas++
		}
	}

	for _, k := range order {
		// Job Data Present: choose the node with the cheapest expected
		// staging; ties go to the least loaded.
		best, bestCost, bestLoad := -1, math.Inf(1), math.Inf(1)
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
				best, bestCost, bestLoad = i, c, load[i]
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
		_, extra := stageCost(k, best)
		free[best] -= extra
		load[best] += bestCost + execTime(k, best)
		for _, f := range b.Tasks[k].Files {
			holds[best][f] = true
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("jdp: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}
