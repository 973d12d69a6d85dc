// Package minmin implements the paper's first baseline: MinMin task
// scheduling with implicit replication (§3, after Maheswaran et al.).
//
// At every step the algorithm computes, for each unscheduled task, its
// minimum expected completion time (MCT) over all compute nodes —
// accounting for the files each node already holds, files that earlier
// decisions in this plan will have staged, and the cheaper
// compute-to-compute path for files held anywhere in the cluster — and
// schedules the task whose minimum MCT is smallest on its best node.
// Staging every input file of a scheduled task onto its node creates
// copies implicitly, which later tasks exploit: the paper's "implicit
// replication policy".
//
// Disk space is respected while planning: when no remaining task fits
// anywhere, the sub-batch closes, and the popularity eviction policy
// (§4.3) frees space before the next round, exactly as the paper
// integrates it with MinMin.
//
// The planner is incremental: a keyed min-heap over per-task best
// completion times, updated eagerly for tasks sharing a file with each
// placement (via an inverted file→task index) and lazily, via per-node
// version counters and a lower-bound "dirty" discount, for everything
// else. Re-verifying a stale entry prices only the nodes holding one of
// the task's inputs plus the least-loaded eligible nodes of each
// bandwidth class, not all C, so a plan costs roughly
// O((T log T + shares)·files). The O(T²·C) full-rescan reference it
// reproduces byte for byte lives in reference_test.go, pinned by
// TestMinMinIncrementalEquivalence and FuzzMinMinEquivalence. See
// DESIGN.md §14 for the invariant argument.
package minmin

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/obs/journal"
)

// Scheduler is the MinMin baseline. The zero value is ready to use.
type Scheduler struct{}

// New returns a MinMin scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "MinMin" }

// Evict implements core.Scheduler using the §4.3 popularity policy.
func (s *Scheduler) Evict(st *core.State, pending []batch.TaskID) {
	eviction.Popularity(st, pending)
}

// mmState is the working copy of the cluster file state as one plan
// unfolds. The planner and the test-only reference share it — and in
// particular the ect method — so their float arithmetic is
// operation-for-operation identical.
type mmState struct {
	p         *core.Problem
	b         *batch.Batch
	C         int
	holds     [][]bool
	free      []int64
	ready     []float64
	bwRemote  []float64
	bwReplica float64

	// holders[f] lists the nodes holding file f in the plan state; a
	// file with no holder has no cluster copy to replicate from.
	holders [][]int32
	// class[i] is node i's cold class: nodes with equal (bwRemote,
	// LocalReadBW) price a task none of whose inputs they hold with
	// the same floats, up to their ready time. classOrder[c] keeps
	// class c's nodes sorted by (ready, index).
	class      []int32
	classOrder [][]int32
	// warm[i] == warmSeq marks node i as holding an input of the task
	// bestNode is searching for.
	warm    []int
	warmSeq int
}

func newMMState(st *core.State) *mmState {
	p := st.P
	b := p.Batch
	C := p.Platform.NumCompute()
	m := &mmState{
		p: p, b: b, C: C,
		holds:   st.PresentMatrix(),
		free:    make([]int64, C),
		ready:   make([]float64, C),
		holders: make([][]int32, b.NumFiles()),
		class:   make([]int32, C),
		warm:    make([]int, C),
	}
	for i := 0; i < C; i++ {
		m.free[i] = st.Free(i)
	}
	st.EachCopy(func(i int, f batch.FileID) {
		m.holders[f] = append(m.holders[f], int32(i)) // i ascends within f
	})
	m.bwRemote = make([]float64, C)
	classOf := make(map[[2]float64]int32)
	for i := 0; i < C; i++ {
		bw := math.Inf(1)
		for sn := range p.Platform.Storage {
			bw = math.Min(bw, p.Platform.RemoteBW(sn, i))
		}
		m.bwRemote[i] = bw
		key := [2]float64{bw, p.Platform.Compute[i].LocalReadBW}
		c, ok := classOf[key]
		if !ok {
			c = int32(len(m.classOrder))
			classOf[key] = c
			m.classOrder = append(m.classOrder, nil)
		}
		m.class[i] = c
		// Every ready time starts at zero, so index order is sorted.
		m.classOrder[c] = append(m.classOrder[c], int32(i))
	}
	m.bwReplica = p.Platform.MinReplicaBW()
	return m
}

// ect estimates task k's completion on node i given current plan
// state; extra reports the new bytes the node must hold.
func (m *mmState) ect(k batch.TaskID, i int) (float64, int64) {
	t := &m.b.Tasks[k]
	stage := 0.0
	var extra int64
	var bytes int64
	for _, f := range t.Files {
		size := m.b.FileSize(f)
		bytes += size
		if m.holds[i][f] {
			continue
		}
		extra += size
		if len(m.holders[f]) > 0 && !m.p.DisableReplication {
			stage += float64(size) / m.bwReplica
		} else {
			stage += float64(size) / m.bwRemote[i]
		}
	}
	exec := float64(bytes)/m.p.Platform.Compute[i].LocalReadBW + t.Compute
	return m.ready[i] + stage + exec, extra
}

// place applies one placement to the working state exactly as the
// reference does — journal first (pre-commit candidate scores), then
// ready/free/holds updates — and reports which of k's files were newly
// staged and which of those gained their first cluster copy.
func (m *mmState) place(st *core.State, plan *core.SubPlan, k batch.TaskID, bestNode int, bestT float64,
	cands []journal.Candidate) (staged []batch.FileID, first []bool) {
	plan.Tasks = append(plan.Tasks, k)
	plan.Node[k] = bestNode
	if st.J.Enabled() {
		st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlace, Round: st.JRound,
			Place: &journal.Place{Task: int(k), Node: bestNode, Policy: "minmin-mct",
				Score: bestT, Candidates: cands,
				Reason: "smallest minimum expected completion time among unscheduled tasks"}})
	}
	// Stage the task's files (implicit replication) and occupy the
	// node.
	e, extra := m.ect(k, bestNode)
	m.setReady(bestNode, e)
	m.free[bestNode] -= extra
	for _, f := range m.b.Tasks[k].Files {
		if !m.holds[bestNode][f] {
			staged = append(staged, f)
			first = append(first, len(m.holders[f]) == 0)
			m.holds[bestNode][f] = true
			m.holders[f] = append(m.holders[f], int32(bestNode))
		}
	}
	return staged, first
}

// readyBefore orders nodes within a cold class by (ready, index).
func (m *mmState) readyBefore(a, b int32) bool {
	if m.ready[a] != m.ready[b] {
		return m.ready[a] < m.ready[b]
	}
	return a < b
}

// setReady moves node i to its new place in its class order.
func (m *mmState) setReady(i int, r float64) {
	c := m.class[i]
	ord := m.classOrder[c]
	n := int32(i)
	p := sort.Search(len(ord), func(x int) bool { return !m.readyBefore(ord[x], n) })
	ord = append(ord[:p], ord[p+1:]...)
	m.ready[i] = r
	q := sort.Search(len(ord), func(x int) bool { return !m.readyBefore(ord[x], n) })
	ord = append(ord, 0)
	copy(ord[q+1:], ord[q:])
	ord[q] = n
	m.classOrder[c] = ord
}

// bestNode returns task k's minimum completion time over the nodes
// with room for its new bytes, and the lowest-indexed node achieving
// it (node -1, key +Inf when none fits) — the result of the
// reference's strict-< ascending scan over all C nodes, found without
// visiting them all (DESIGN.md §14).
//
// Nodes holding one of k's inputs (warm) are priced one by one. Every
// other node stages all of k's files, so within a cold class its
// estimate is (ready + S) + X for the same S and X; rounding is
// monotone, so it cannot fall as ready rises. Each class is walked in
// (ready, index) order, pricing only the first eligible node of every
// distinct ready time, until a price exceeds the best found so far.
func (m *mmState) bestNode(k batch.TaskID) (float64, int32) {
	best, node := math.Inf(1), int32(-1)
	take := func(v float64, i int32) {
		if v < best || (v == best && i < node) {
			best, node = v, i
		}
	}
	m.warmSeq++
	var taskBytes int64
	for _, f := range m.b.Tasks[k].Files {
		taskBytes += m.b.FileSize(f)
		for _, i := range m.holders[f] {
			if m.warm[i] == m.warmSeq {
				continue
			}
			m.warm[i] = m.warmSeq
			if v, extra := m.ect(k, int(i)); extra <= m.free[i] {
				take(v, i)
			}
		}
	}
	for _, ord := range m.classOrder {
		for x := 0; x < len(ord); {
			i := ord[x]
			if m.warm[i] == m.warmSeq || taskBytes > m.free[i] {
				x++
				continue
			}
			v, _ := m.ect(k, int(i))
			if v > best {
				break
			}
			take(v, i)
			r := m.ready[i]
			x++
			x += sort.Search(len(ord)-x, func(y int) bool { return m.ready[ord[x+y]] > r })
		}
	}
	return best, node
}

// mmEntry is one task's cached best (completion, node) pair in the
// incremental heap. key is a lower bound on the task's true minimum
// completion time; it is exact when the entry is clean (not dirty) and
// its node version matches. node is -1 when the task fits nowhere
// (key +Inf).
type mmEntry struct {
	key   float64
	node  int32
	nver  int32
	dirty bool
	pos   int32 // heap position; -1 once committed
}

// mmHeap is an indexed min-heap over task indices ordered by
// (key, index) — exactly the reference argmin's tie-break (first task
// index achieving the strict minimum).
type mmHeap struct {
	entries []mmEntry
	order   []int32
}

func (h *mmHeap) less(a, b int32) bool {
	ea, eb := &h.entries[a], &h.entries[b]
	if ea.key != eb.key {
		return ea.key < eb.key
	}
	return a < b
}

func (h *mmHeap) swap(i, j int) {
	h.order[i], h.order[j] = h.order[j], h.order[i]
	h.entries[h.order[i]].pos = int32(i)
	h.entries[h.order[j]].pos = int32(j)
}

func (h *mmHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.order[i], h.order[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *mmHeap) down(i int) {
	n := len(h.order)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.order[l], h.order[small]) {
			small = l
		}
		if r < n && h.less(h.order[r], h.order[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// fix restores heap order around task idx after its key changed.
func (h *mmHeap) fix(idx int32) {
	h.up(int(h.entries[idx].pos))
	h.down(int(h.entries[idx].pos))
}

// popTop removes the root entry.
func (h *mmHeap) popTop() {
	idx := h.order[0]
	last := len(h.order) - 1
	h.swap(0, last)
	h.order = h.order[:last]
	h.entries[idx].pos = -1
	if last > 0 {
		h.down(0)
	}
}

// PlanSubBatch implements core.Scheduler. Invariants (see DESIGN.md
// §14): every live entry's key is a lower bound on the task's true
// minimum completion time, and a clean entry with a fresh node version
// is exact, so popping the smallest clean-fresh key reproduces the
// reference argmin decision for decision.
func (s *Scheduler) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	m := newMMState(st)
	b, C := m.b, m.C

	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}
	unsched := append([]batch.TaskID(nil), pending...)

	// Inverted file → pending-task index, for the eager share updates.
	fileTasks := make([][]int32, b.NumFiles())
	for idx, k := range unsched {
		for _, f := range b.Tasks[k].Files {
			fileTasks[f] = append(fileTasks[f], int32(idx))
		}
	}

	// dropRate bounds, per newly replicable byte, how much any node's
	// completion estimate can fall when a file's path switches from
	// remote to replica (its first holder). Slightly inflated so the
	// discounted key stays a lower bound despite summation rounding.
	dropRate := 0.0
	if !m.p.DisableReplication {
		invRemoteMax := 0.0
		for i := 0; i < C; i++ {
			if inv := 1 / m.bwRemote[i]; inv > invRemoteMax {
				invRemoteMax = inv
			}
		}
		if d := invRemoteMax - 1/m.bwReplica; d > 0 {
			dropRate = d * 1.000001
		}
	}

	h := &mmHeap{entries: make([]mmEntry, len(unsched)), order: make([]int32, len(unsched))}
	nodeVer := make([]int32, C)
	recompute := func(idx int32) {
		e := &h.entries[idx]
		e.key, e.node = m.bestNode(unsched[idx])
		if e.node >= 0 {
			e.nver = nodeVer[e.node]
		}
		e.dirty = false
	}
	for idx := range unsched {
		recompute(int32(idx))
		h.order[idx] = int32(idx)
		h.entries[idx].pos = int32(idx)
	}
	for i := len(unsched)/2 - 1; i >= 0; i-- {
		h.down(i)
	}

	eagerStamp := make([]int32, len(unsched))
	for i := range eagerStamp {
		eagerStamp[i] = -1
	}
	var commitSeq int32

	for len(h.order) > 0 {
		idx := h.order[0]
		e := &h.entries[idx]
		if e.dirty || (e.node >= 0 && e.nver != nodeVer[e.node]) {
			recompute(idx)
			h.down(0)
			continue
		}
		if e.node < 0 {
			break // nothing fits: close the sub-batch
		}
		k := unsched[idx]
		bestNode, bestT := int(e.node), e.key
		var cands []journal.Candidate
		if st.J.Enabled() {
			// The reference journals every candidate's score from its
			// always-exact matrix; recomputing the row against the
			// pre-commit state yields the same floats.
			cands = make([]journal.Candidate, C)
			for i := 0; i < C; i++ {
				v, extra := m.ect(k, i)
				cands[i] = journal.Candidate{Node: i, Score: v, Fits: extra <= m.free[i]}
			}
		}
		h.popTop()
		staged, first := m.place(st, plan, k, bestNode, bestT, cands)
		nodeVer[bestNode]++
		commitSeq++

		// Eager updates: tasks sharing a newly staged file see their
		// bestNode column drop; evaluating just that column keeps their
		// entries exact (clean entries) or lower-bounded (dirty ones).
		// A first cluster copy additionally cheapens every node's
		// estimate for its sharers: discount their keys by the maximum
		// possible drop and mark them dirty for exact recomputation at
		// pop time.
		for si, f := range staged {
			var disc float64
			if first[si] && dropRate > 0 {
				disc = float64(b.FileSize(f))*dropRate + 1e-9
			}
			for _, oidx := range fileTasks[f] {
				oe := &h.entries[oidx]
				if oe.pos < 0 || oidx == idx {
					continue
				}
				if eagerStamp[oidx] != commitSeq {
					eagerStamp[oidx] = commitSeq
					kk := unsched[oidx]
					v, extra := m.ect(kk, bestNode)
					if extra <= m.free[bestNode] &&
						(v < oe.key || (v == oe.key && int32(bestNode) < oe.node) || oe.node < 0) {
						oe.key, oe.node, oe.nver = v, int32(bestNode), nodeVer[bestNode]
						h.fix(oidx)
					}
				}
				if disc > 0 && !math.IsInf(oe.key, 1) {
					oe.key -= disc
					oe.dirty = true
					h.fix(oidx)
				} else if first[si] && !m.p.DisableReplication {
					oe.dirty = true
				}
			}
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("minmin: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}
