// Package bipart implements the paper's BiPartition scheduler (§5):
// a bi-level hypergraph-partitioning heuristic that decouples task
// scheduling from data replication.
//
// Level 1 (sub-batch selection, §5.2): the pending tasks form a
// hypergraph — one vertex per task, one net per file connecting the
// tasks that read it, net weight = file size. A Bounded Incident Net
// Weight (BINW) partition with bound D = aggregate free compute-
// cluster disk yields sub-batches whose file working sets each fit the
// cluster, while the connectivity-1 objective minimizes files shared
// across sub-batches.
//
// Level 2 (task mapping, §5.3): each sub-batch is partitioned K ways
// (K = compute nodes) minimizing connectivity-1 with vertex weights
// set to the probabilistic expected execution time of Eq. 25–26,
// which folds in the chance a file must come from storage
// (first-task-to-need-it) versus already being on some node.
//
// A repair pass enforces per-node disk capacity (§5.3): files staged
// to an over-full node are dropped in increasing order of their
// sharer count s_j, and tasks that lost files are deferred to later
// sub-batches. Eviction between sub-batches uses the §4.3 popularity
// policy.
package bipart

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// The partitioners' balance tolerances: each part of the second-level
// K-way mapping stays within (1+kwayEps) of its proportional weight
// target, and each side of a first-level BINW bisection within
// (1+binwEps) of its target.
const (
	kwayEps = 0.05
	binwEps = 0.20
)

// Scheduler is the BiPartition scheduler.
type Scheduler struct {
	// Seed drives the randomized multilevel partitioner.
	Seed int64
	// Workers bounds the goroutines of the recursive hypergraph
	// partitioners (≤ 0 = GOMAXPROCS, 1 = sequential). The schedule is a
	// pure function of Seed — Workers never changes the result, only
	// the wall-clock time to compute it.
	Workers int
}

// New returns a BiPartition scheduler whose partitioner draws from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{Seed: seed}
}

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "BiPartition" }

// Evict implements core.Scheduler using the §4.3 popularity policy.
func (s *Scheduler) Evict(st *core.State, pending []batch.TaskID) {
	eviction.Popularity(st, pending)
}

// PlanSubBatch implements core.Scheduler.
func (s *Scheduler) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	sub, err := s.selectSubBatch(st, pending)
	if err != nil {
		return nil, err
	}
	st.Trace.Instant(obs.TrackSched, "bipart", "sub-batch selected",
		obs.A("pending", len(pending)), obs.A("selected", len(sub)))
	assign, err := s.mapTasks(st, sub)
	if err != nil {
		return nil, err
	}
	before := len(assign)
	assign = s.repairDisk(st, sub, assign)
	st.Trace.Instant(obs.TrackSched, "bipart", "tasks mapped",
		obs.A("mapped", before), obs.A("after_repair", len(assign)))
	reason := "connectivity-1 K-way partition of the sub-batch hypergraph (Eq. 25–26 expected-time vertex weights)"
	if len(assign) == 0 {
		// Repair dropped everything; guarantee progress by placing the
		// single most-sharing task alone on the emptiest node.
		assign = s.fallbackSingle(st, pending)
		if len(assign) == 0 {
			return nil, fmt.Errorf("bipart: cannot place any pending task (pending %d)", len(pending))
		}
		reason = "disk repair dropped the whole mapping; single task placed on the emptiest fitting node"
	}
	plan := &core.SubPlan{Node: assign}
	for t := range assign {
		plan.Tasks = append(plan.Tasks, t)
	}
	plan.Tasks = batch.SortedCopy(plan.Tasks)
	if st.J.Enabled() {
		for _, t := range plan.Tasks {
			//schedlint:allow ordertaint plan.Tasks is sorted by SortedCopy above, so emission order is deterministic
			st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlace, Round: st.JRound,
				Place: &journal.Place{Task: int(t), Node: assign[t], Policy: "kway-partition",
					Reason: reason}})
		}
	}
	return plan, nil
}

// MapForWarmStart exposes the second-level mapping plus disk repair
// for a caller-chosen sub-batch; the IP scheduler uses it to seed its
// branch and bound with a feasible incumbent. An error is returned if
// the repaired mapping does not cover every task in sub.
func (s *Scheduler) MapForWarmStart(st *core.State, sub []batch.TaskID) (map[batch.TaskID]int, error) {
	assign, err := s.mapTasks(st, sub)
	if err != nil {
		return nil, err
	}
	assign = s.repairDisk(st, sub, assign)
	if len(assign) != len(sub) {
		return nil, fmt.Errorf("bipart: repair dropped %d of %d tasks", len(sub)-len(assign), len(sub))
	}
	return assign, nil
}

// selectSubBatch runs the first-level BINW partition and returns the
// sub-batch to execute now: the part with the highest total file
// affinity to data already on the cluster (ties: lowest part id), so
// warm copies get reused.
func (s *Scheduler) selectSubBatch(st *core.State, pending []batch.TaskID) ([]batch.TaskID, error) {
	b := st.P.Batch
	agg := st.AggregateFree()
	if b.TotalUniqueBytes(pending) <= agg {
		return pending, nil // everything fits: one sub-batch
	}
	h, _, files := buildHypergraph(st, pending, nil)
	part, np, err := hypergraph.PartitionBINW(h, agg, hypergraph.BINWOptions{Eps: binwEps, Seed: s.Seed, Workers: s.Workers, Trace: st.Trace})
	if err != nil {
		return nil, err
	}
	if np == 1 {
		return pending, nil
	}
	// Score each part by bytes of its files already resident on the
	// compute cluster.
	scores := make([]int64, np)
	counted := make(map[[2]int]bool)
	for n := 0; n < h.NumN; n++ {
		f := files[n]
		resident := st.NumCopies(f) > 0
		if !resident {
			continue
		}
		for _, v := range h.NetPins(n) {
			key := [2]int{n, part[v]}
			if !counted[key] {
				counted[key] = true
				scores[part[v]] += b.FileSize(f)
			}
		}
	}
	best := 0
	for p := 1; p < np; p++ {
		if scores[p] > scores[best] {
			best = p
		}
	}
	var sub []batch.TaskID
	for v, p := range part {
		if p == best {
			sub = append(sub, pending[v])
		}
	}
	return sub, nil
}

// mapTasks runs the second-level K-way partition on the sub-batch.
func (s *Scheduler) mapTasks(st *core.State, sub []batch.TaskID) (map[batch.TaskID]int, error) {
	K := st.P.Platform.NumCompute()
	weights := vertexWeights(st, sub)
	h, _, _ := buildHypergraph(st, sub, weights)
	part, err := hypergraph.PartitionKWay(h, K, hypergraph.KWayOptions{Eps: kwayEps, Seed: s.Seed + 1, Workers: s.Workers, Trace: st.Trace})
	if err != nil {
		return nil, err
	}
	assign := make(map[batch.TaskID]int, len(sub))
	for v, t := range sub {
		assign[t] = part[v]
	}
	return assign, nil
}

// vertexWeights computes the Eq. 25–26 expected execution times of the
// sub-batch tasks, scaled to int64 microseconds for the partitioner.
func vertexWeights(st *core.State, sub []batch.TaskID) []int64 {
	p := st.P
	b := p.Batch
	K := float64(p.Platform.NumCompute())
	T := float64(len(sub))
	BWs := p.Platform.MinRemoteBW()
	BWc := p.Platform.MinReplicaBW()
	if p.DisableReplication {
		BWc = BWs
	}
	// sharers within the sub-batch
	sj := make(map[batch.FileID]int)
	for _, t := range sub {
		for _, f := range b.Tasks[t].Files {
			sj[f]++
		}
	}
	out := make([]int64, len(sub))
	for i, t := range sub {
		task := &b.Tasks[t]
		var exec float64
		bytes := b.TaskBytes(t)
		var cPerByte float64
		if bytes > 0 {
			cPerByte = task.Compute / float64(bytes)
		}
		for _, f := range task.Files {
			size := float64(b.FileSize(f))
			sjf := float64(sj[f])
			probFNE := 1.0 / sjf
			probFE := (sjf / math.Max(T, 1)) * (1 / K)
			tr := probFNE/BWs + (1-probFNE)*(1-probFE)/math.Min(BWs, BWc)
			exec += size * (tr + 1/p.Platform.Compute[0].LocalReadBW + cPerByte)
		}
		out[i] = int64(exec * 1e6)
		if out[i] <= 0 {
			out[i] = 1
		}
	}
	return out
}

// repairDisk enforces per-node capacity (§5.3): for each over-full
// node, newly staged files are removed in increasing sharer count
// until the node fits, and tasks missing a removed file are dropped
// from the plan.
func (s *Scheduler) repairDisk(st *core.State, sub []batch.TaskID, assign map[batch.TaskID]int) map[batch.TaskID]int {
	b := st.P.Batch
	K := st.P.Platform.NumCompute()
	// sharers within the sub-batch
	sj := make(map[batch.FileID]int)
	for _, t := range sub {
		for _, f := range b.Tasks[t].Files {
			sj[f]++
		}
	}
	for i := 0; i < K; i++ {
		// Files to stage on node i.
		newFiles := make(map[batch.FileID]bool)
		for t, n := range assign {
			if n != i {
				continue
			}
			for _, f := range b.Tasks[t].Files {
				if !st.Holds(i, f) {
					newFiles[f] = true
				}
			}
		}
		var need int64
		var list []batch.FileID
		for f := range newFiles {
			need += b.FileSize(f)
			list = append(list, f)
		}
		free := st.Free(i)
		if need <= free {
			continue
		}
		sort.Slice(list, func(a, z int) bool {
			if sj[list[a]] != sj[list[z]] {
				return sj[list[a]] < sj[list[z]]
			}
			return list[a] < list[z]
		})
		removed := make(map[batch.FileID]bool)
		for _, f := range list {
			if need <= free {
				break
			}
			removed[f] = true
			need -= b.FileSize(f)
		}
		if len(removed) == 0 {
			continue
		}
		for t, n := range assign {
			if n != i {
				continue
			}
			for _, f := range b.Tasks[t].Files {
				if removed[f] {
					delete(assign, t)
					break
				}
			}
		}
	}
	return assign
}

// fallbackSingle places one pending task on the node where it fits
// with the most free space, or returns an empty map when impossible.
func (s *Scheduler) fallbackSingle(st *core.State, pending []batch.TaskID) map[batch.TaskID]int {
	b := st.P.Batch
	for _, t := range pending {
		best, bestFree := -1, int64(-1)
		for i := 0; i < st.P.Platform.NumCompute(); i++ {
			var need int64
			for _, f := range b.Tasks[t].Files {
				if !st.Holds(i, f) {
					need += b.FileSize(f)
				}
			}
			if free := st.Free(i); need <= free && free > bestFree {
				best, bestFree = i, free
			}
		}
		if best >= 0 {
			return map[batch.TaskID]int{t: best}
		}
	}
	return nil
}

// buildHypergraph constructs the task/file hypergraph of the given
// tasks. When weights is nil, vertex weights default to scaled compute
// times. It returns the hypergraph, the vertex→task mapping (identical
// to the input slice) and the net→file mapping. Nets are the files
// the tasks read, in file-id order, each pinning its readers in task
// order: a counting sort of the (file, task) pins by file id.
func buildHypergraph(st *core.State, tasks []batch.TaskID, weights []int64) (*hypergraph.Hypergraph, []batch.TaskID, []batch.FileID) {
	b := st.P.Batch
	vw := make([]int64, len(tasks))
	// at[f] counts f's readers, then becomes the cursor into f's net.
	at := make([]int32, b.NumFiles())
	nets := 0
	for i, t := range tasks {
		w := int64(b.Tasks[t].Compute * 1e6)
		if weights != nil {
			w = weights[i]
		}
		vw[i] = max(w, 1)
		for _, f := range b.Tasks[t].Files {
			if at[f] == 0 {
				nets++
			}
			at[f]++
		}
	}
	files := make([]batch.FileID, 0, nets)
	nw := make([]int64, 0, nets)
	xpins := make([]int32, 1, nets+1)
	for f, c := range at {
		if c == 0 {
			continue
		}
		files = append(files, batch.FileID(f))
		nw = append(nw, b.FileSize(batch.FileID(f)))
		at[f] = xpins[len(xpins)-1]
		xpins = append(xpins, at[f]+c)
	}
	pins := make([]int32, xpins[len(xpins)-1])
	for i, t := range tasks {
		for _, f := range b.Tasks[t].Files {
			pins[at[f]] = int32(i)
			at[f]++
		}
	}
	h, err := hypergraph.FromCSR(vw, nw, xpins, pins)
	if err != nil {
		panic(err) // inputs are pre-validated
	}
	return h, tasks, files
}
