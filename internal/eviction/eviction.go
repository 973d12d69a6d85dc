// Package eviction implements the paper's two disk-cache eviction
// mechanisms, invoked between sub-batch executions:
//
//   - Popularity (§4.3): file copies are deleted in increasing order
//     of Popularity_l = Access_Freq_l × fsize(f_l) / Numcopies_l,
//     where Access_Freq counts pending requests; used with the IP,
//     BiPartition and MinMin schedulers.
//   - LRU: least-recently-used copies are deleted first; used with the
//     JobDataPresent / DataLeastLoaded baseline, as in
//     Ranganathan-Foster.
//
// The paper "marks files for deletion" after each sub-batch and
// guarantees "each node has as much storage space as required to
// execute at least a single task". A literal minimal reclamation
// would shrink every subsequent sub-batch to a handful of tasks, so —
// consistent with the bulk marking the paper describes — both policies
// here reclaim down to a retention budget: each node keeps at most
// KeepFraction of its capacity occupied by its most valuable copies
// (most popular / most recently used), and always at least enough
// free space for the largest pending task.
package eviction

import (
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
)

// KeepFraction is the default retained share of each node's disk
// after an eviction round.
const KeepFraction = 0.25

// copyRef identifies one file copy on one compute node with its
// eviction priority (lower value = evicted earlier).
type copyRef struct {
	node  int
	file  batch.FileID
	value float64
}

// Popularity frees disk using the §4.3 policy with the default
// retention budget.
func Popularity(st *core.State, pending []batch.TaskID) {
	PopularityKeep(st, pending, KeepFraction)
}

// PopularityKeep frees disk using the §4.3 policy, keeping at most
// keep·capacity of the most popular copies per node.
func PopularityKeep(st *core.State, pending []batch.TaskID, keep float64) {
	evictTo(st, pending, keep, "popularity", func(n int, f batch.FileID) float64 {
		copies := st.NumCopies(f)
		if copies == 0 {
			return 0
		}
		return float64(st.AccessFreq(f)) * float64(st.P.Batch.FileSize(f)) / float64(copies)
	})
}

// LRU frees disk evicting least-recently-used copies first, with the
// default retention budget.
func LRU(st *core.State, pending []batch.TaskID) {
	LRUKeep(st, pending, KeepFraction)
}

// LRUKeep is LRU with an explicit retention budget.
func LRUKeep(st *core.State, pending []batch.TaskID, keep float64) {
	evictTo(st, pending, keep, "lru", func(n int, f batch.FileID) float64 {
		return st.LastUse(n, f)
	})
}

// evictTo deletes copies per node, lowest value first, until the node
// holds at most keep·capacity of cached bytes and has room for the
// largest pending task. Each node's values are computed when its turn
// comes, in ascending node order, so a Popularity value sees the copies
// earlier nodes already gave up.
func evictTo(st *core.State, pending []batch.TaskID, keep float64, policy string, value func(int, batch.FileID) float64) {
	minFree := st.MaxPendingTaskBytes(pending)
	budget := make([]int64, st.P.Platform.NumCompute())
	over := false
	for n := range budget {
		budget[n] = math.MaxInt64 // unlimited disks never evict
		cap := st.P.Platform.Compute[n].DiskSpace
		if cap <= 0 {
			continue
		}
		b := int64(float64(cap) * keep)
		if cap-b < minFree {
			b = cap - minFree
		}
		budget[n] = max(b, 0)
		over = over || st.Used(n) > budget[n]
	}
	if !over {
		return
	}
	// One pass over the actual copies collects each over-budget node's
	// files in ascending order.
	held := make([][]batch.FileID, len(budget))
	st.EachCopy(func(n int, f batch.FileID) {
		if st.Used(n) > budget[n] {
			held[n] = append(held[n], f)
		}
	})
	for n, files := range held {
		if len(files) == 0 {
			continue
		}
		copies := make([]copyRef, len(files))
		for i, f := range files {
			copies[i] = copyRef{node: n, file: f, value: value(n, f)}
		}
		sort.Slice(copies, func(i, j int) bool {
			if copies[i].value != copies[j].value {
				return copies[i].value < copies[j].value
			}
			return copies[i].file < copies[j].file
		})
		for _, c := range copies {
			if st.Used(n) <= budget[n] {
				break
			}
			if st.J.Enabled() {
				st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindEvict, Round: st.JRound,
					Evict: &journal.Evict{Node: c.node, File: int(c.file),
						Bytes: st.P.Batch.FileSize(c.file), Score: c.value, Policy: policy}})
			}
			st.Evict(c.node, c.file)
		}
	}
}
