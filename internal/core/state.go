package core

import (
	"fmt"
	"slices"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// State is the compute-cluster disk-cache state threaded through the
// sub-batch loop: which files each node currently holds, how much disk
// they consume, and recency/bookkeeping the eviction policies need.
//
// The cluster's copies are stored once per file, as the paper's §6
// sees them ("the nodes that already hold the file"): copies[f] lists
// f's compute-cluster copies in ascending node order. A file has a few
// copies where the cluster has hundreds of nodes, so the state costs
// O(files + copies) instead of O(nodes × files).
type State struct {
	P *Problem

	copies [][]fileCopy // [file] copies, ascending node
	used   []int64      // bytes used per node
	// Clock is the accumulated simulated execution time of all
	// sub-batches run so far. The executor advances it.
	Clock float64
	// Evictions counts file copies removed so far.
	Evictions int
	// Done marks tasks that have completed.
	Done []bool

	// J receives decision-provenance events when journaling is on.
	// The run loop threads it here so schedulers (via PlanSubBatch's
	// state argument) and the eviction policies can record rationale
	// without API changes; nil (the default) journals nothing.
	J *journal.Recorder
	// JRound is the sub-batch ordinal journal events should carry,
	// maintained by the run loop.
	JRound int
	// Trace is the run's tracer, threaded here by the run loop next to
	// J so schedulers hand it to their partitioner and solver; nil (the
	// default) traces nothing. Observability only: no schedule reads it.
	Trace *obs.Trace
}

// fileCopy is one compute-cluster copy of a file: the node holding it
// and a time whose meaning the list's owner defines. In State.copies it
// is the absolute sim time of the copy's last use (for LRU eviction);
// in executor.holders, the sub-batch-relative time the copy is
// available from.
type fileCopy struct {
	node int32
	at   float64
}

// findCopy returns the position of node n's copy in the node-sorted
// list cs, or the position where it would be inserted, and whether it
// is there.
func findCopy(cs []fileCopy, n int) (int, bool) {
	lo, hi := 0, len(cs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(cs[m].node) < n {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(cs) && int(cs[lo].node) == n
}

// NewState builds the initial state: storage-cluster holds everything,
// compute-cluster disks empty.
func NewState(p *Problem) (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &State{
		P:      p,
		copies: make([][]fileCopy, p.Batch.NumFiles()),
		used:   make([]int64, p.Platform.NumCompute()),
		Done:   make([]bool, p.Batch.NumTasks()),
	}, nil
}

// remove deletes node n's copy of f, reporting whether there was one.
func (s *State) remove(n int, f batch.FileID) bool {
	i, ok := findCopy(s.copies[f], n)
	if !ok {
		return false
	}
	s.copies[f] = slices.Delete(s.copies[f], i, i+1)
	s.used[n] -= s.P.Batch.FileSize(f)
	return true
}

// Holds reports whether compute node n currently holds file f.
func (s *State) Holds(n int, f batch.FileID) bool {
	_, ok := findCopy(s.copies[f], n)
	return ok
}

// Holders returns the compute nodes currently holding file f, in
// ascending order (nil when there are none).
func (s *State) Holders(f batch.FileID) []int {
	cs := s.copies[f]
	if len(cs) == 0 {
		return nil
	}
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = int(c.node)
	}
	return out
}

// NumCopies returns the number of compute-cluster copies of file f.
func (s *State) NumCopies(f batch.FileID) int { return len(s.copies[f]) }

// EachCopy calls fn for every compute-cluster copy, in ascending file
// order and, within a file, ascending node order. fn must not change
// the state.
func (s *State) EachCopy(fn func(n int, f batch.FileID)) {
	for f, cs := range s.copies {
		for _, c := range cs {
			fn(int(c.node), batch.FileID(f))
		}
	}
}

// Used returns the bytes of disk used on compute node n.
func (s *State) Used(n int) int64 { return s.used[n] }

// Free returns the free disk bytes on compute node n. Unlimited disks
// report a very large value.
func (s *State) Free(n int) int64 {
	cap := s.P.Platform.Compute[n].DiskSpace
	if cap <= 0 {
		return 1 << 62
	}
	return cap - s.used[n]
}

// AggregateFree returns total free disk across the compute cluster.
func (s *State) AggregateFree() int64 {
	var sum int64
	for n := range s.used {
		f := s.Free(n)
		if f >= 1<<62 {
			return 1 << 62
		}
		sum += f
	}
	return sum
}

// AddFile records that node n now holds file f (staged at absolute sim
// time at). It returns an error on disk-capacity violation — which
// indicates a scheduler bug, since plans must respect capacity.
func (s *State) AddFile(n int, f batch.FileID, at float64) error {
	i, ok := findCopy(s.copies[f], n)
	if ok {
		s.copies[f][i].at = at
		return nil
	}
	size := s.P.Batch.FileSize(f)
	if s.Free(n) < size {
		return fmt.Errorf("core: staging file %d (%d B) onto node %d exceeds its disk capacity (free %d B)", f, size, n, s.Free(n))
	}
	s.copies[f] = slices.Insert(s.copies[f], i, fileCopy{node: int32(n), at: at})
	s.used[n] += size
	return nil
}

// Touch records a use of file f on node n at absolute sim time at
// (for LRU eviction).
func (s *State) Touch(n int, f batch.FileID, at float64) {
	if i, ok := findCopy(s.copies[f], n); ok && at > s.copies[f][i].at {
		s.copies[f][i].at = at
	}
}

// LastUse returns the most recent use time of node n's copy of file f
// (0 when n holds no copy).
func (s *State) LastUse(n int, f batch.FileID) float64 {
	if i, ok := findCopy(s.copies[f], n); ok {
		return s.copies[f][i].at
	}
	return 0
}

// Evict removes the copy of file f from node n.
func (s *State) Evict(n int, f batch.FileID) {
	if s.remove(n, f) {
		s.Evictions++
	}
}

// Unstage rolls back an in-flight staging of file f onto node n: the
// copy is removed without counting an Eviction (eviction is a
// scheduling decision; a cancelled speculative transfer is not).
// Used when a speculative twin loses the first-finisher race while
// its inputs are still arriving.
func (s *State) Unstage(n int, f batch.FileID) { s.remove(n, f) }

// DropNode models a node crash: every file copy on compute node n is
// lost and its disk empties. Crash losses are not counted as
// Evictions — eviction is a scheduling decision, a crash is not.
// Returns the number of file copies dropped.
func (s *State) DropNode(n int) int {
	dropped := 0
	for f := range s.copies {
		if s.remove(n, batch.FileID(f)) {
			dropped++
		}
	}
	return dropped
}

// PresentMatrix returns a [node][file] snapshot of the copies, for
// scheduler formulations that need the full placement matrix. The rows
// share one backing array.
func (s *State) PresentMatrix() [][]bool {
	nf := len(s.copies)
	out := make([][]bool, len(s.used))
	flat := make([]bool, len(out)*nf)
	for i := range out {
		out[i] = flat[i*nf : (i+1)*nf : (i+1)*nf]
	}
	for f, cs := range s.copies {
		for _, c := range cs {
			out[c.node][f] = true
		}
	}
	return out
}

// AccessFreq returns the number of pending (not-done) tasks that
// access file f — the paper's Access_Freq_l used by the popularity
// eviction policy.
func (s *State) AccessFreq(f batch.FileID) int {
	c := 0
	for _, t := range s.P.Batch.Require(f) {
		if !s.Done[t] {
			c++
		}
	}
	return c
}

// MaxPendingTaskBytes returns the largest file working set among the
// given pending tasks.
func (s *State) MaxPendingTaskBytes(pending []batch.TaskID) int64 {
	var m int64
	for _, t := range pending {
		if n := s.P.Batch.TaskBytes(t); n > m {
			m = n
		}
	}
	return m
}
