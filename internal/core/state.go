package core

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/obs/journal"
)

// State is the compute-cluster disk-cache state threaded through the
// sub-batch loop: which files each node currently holds, how much disk
// they consume, and recency/bookkeeping the eviction policies need.
type State struct {
	P *Problem

	holds   [][]bool    // [node][file]
	used    []int64     // bytes used per node
	lastUse [][]float64 // [node][file] absolute sim time of last use
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
}

// NewState builds the initial state: storage-cluster holds everything,
// compute-cluster disks empty.
func NewState(p *Problem) (*State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.Platform.NumCompute()
	nf := p.Batch.NumFiles()
	st := &State{
		P:       p,
		holds:   make([][]bool, n),
		used:    make([]int64, n),
		lastUse: make([][]float64, n),
		Done:    make([]bool, p.Batch.NumTasks()),
	}
	for i := 0; i < n; i++ {
		st.holds[i] = make([]bool, nf)
		st.lastUse[i] = make([]float64, nf)
	}
	return st, nil
}

// Holds reports whether compute node n currently holds file f.
func (s *State) Holds(n int, f batch.FileID) bool { return s.holds[n][f] }

// Holders returns the compute nodes currently holding file f.
func (s *State) Holders(f batch.FileID) []int {
	var out []int
	for n := range s.holds {
		if s.holds[n][f] {
			out = append(out, n)
		}
	}
	return out
}

// NumCopies returns the number of compute-cluster copies of file f.
func (s *State) NumCopies(f batch.FileID) int {
	c := 0
	for n := range s.holds {
		if s.holds[n][f] {
			c++
		}
	}
	return c
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
	if s.holds[n][f] {
		s.lastUse[n][f] = at
		return nil
	}
	size := s.P.Batch.FileSize(f)
	if s.Free(n) < size {
		return fmt.Errorf("core: staging file %d (%d B) onto node %d exceeds its disk capacity (free %d B)", f, size, n, s.Free(n))
	}
	s.holds[n][f] = true
	s.used[n] += size
	s.lastUse[n][f] = at
	return nil
}

// Touch records a use of file f on node n at absolute sim time at
// (for LRU eviction).
func (s *State) Touch(n int, f batch.FileID, at float64) {
	if s.holds[n][f] && at > s.lastUse[n][f] {
		s.lastUse[n][f] = at
	}
}

// LastUse returns the most recent use time of file f on node n.
func (s *State) LastUse(n int, f batch.FileID) float64 { return s.lastUse[n][f] }

// Evict removes the copy of file f from node n.
func (s *State) Evict(n int, f batch.FileID) {
	if !s.holds[n][f] {
		return
	}
	s.holds[n][f] = false
	s.used[n] -= s.P.Batch.FileSize(f)
	s.Evictions++
}

// Unstage rolls back an in-flight staging of file f onto node n: the
// copy is removed without counting an Eviction (eviction is a
// scheduling decision; a cancelled speculative transfer is not).
// Used when a speculative twin loses the first-finisher race while
// its inputs are still arriving.
func (s *State) Unstage(n int, f batch.FileID) {
	if !s.holds[n][f] {
		return
	}
	s.holds[n][f] = false
	s.used[n] -= s.P.Batch.FileSize(f)
	s.lastUse[n][f] = 0
}

// DropNode models a node crash: every file copy on compute node n is
// lost and its disk empties. Crash losses are not counted as
// Evictions — eviction is a scheduling decision, a crash is not.
// Returns the number of file copies dropped.
func (s *State) DropNode(n int) int {
	dropped := 0
	for f := range s.holds[n] {
		if s.holds[n][f] {
			s.holds[n][f] = false
			dropped++
		}
		s.lastUse[n][f] = 0
	}
	s.used[n] = 0
	return dropped
}

// PresentMatrix returns a copy of the holds matrix, for scheduler
// formulations that need the full placement snapshot.
func (s *State) PresentMatrix() [][]bool {
	out := make([][]bool, len(s.holds))
	for i := range s.holds {
		out[i] = make([]bool, len(s.holds[i]))
		copy(out[i], s.holds[i])
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
