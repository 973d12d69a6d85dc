package core

import (
	"fmt"
	"slices"

	"repro/internal/batch"
	"repro/internal/gantt"
	"repro/internal/obs/journal"
)

// This file is the runtime half of the determinism/correctness
// contract: where cmd/schedlint proves properties of the code, a
// Checked run proves properties of the schedule the executor
// committed, reading its stagings and executions from the journal, the
// one record of them. A solver bug the static checks cannot see (a
// capacity miscount, a task started before its inputs arrive) surfaces
// here, and so does a journal that disagrees with the port timelines.

// subBatchStart is what one checked sub-batch starts from: the part of
// the check the journal does not record.
type subBatchStart struct {
	// ports are the sub-batch's timelines (sub-batch-relative time),
	// which its executor fills.
	ports gantt.Schedule
	// base is the absolute sim time the sub-batch starts at: journal
	// times are absolute, and a file resident at the start is
	// available from base.
	base float64
	// caps[n] is compute node n's disk capacity in bytes (<= 0 means
	// unlimited), used[n] the bytes resident on it at the start and
	// held[n] the files resident on it, ascending.
	caps, used []int64
	held       [][]int
}

// newSubBatchStart snapshots e's ports and its State's disk; take it
// before e runs.
func newSubBatchStart(e *executor) *subBatchStart {
	st := e.st
	s := &subBatchStart{
		ports: gantt.Schedule{Storage: e.storageTL, Compute: e.computeTL, Link: e.linkTL},
		base:  st.Clock,
		used:  slices.Clone(st.used),
		held:  make([][]int, len(st.used)),
	}
	for _, c := range st.P.Platform.Compute {
		s.caps = append(s.caps, c.DiskSpace)
	}
	st.EachCopy(func(n int, f batch.FileID) { s.held[n] = append(s.held[n], int(f)) })
	return s
}

// validate checks the sub-batch's committed schedule, whose stage and
// exec events evs holds (other kinds are ignored), and returns one
// message per violation (empty means the schedule is sound):
//
//  1. every port timeline is sorted and overlap-free with non-negative
//     durations (gantt.Schedule.Validate);
//  2. no compute node's disk ever holds more bytes than its capacity;
//  3. every input file of every task is resident — held at the start
//     or staged with its transfer ending by the task's start — before
//     the task begins.
func (s *subBatchStart) validate(evs []journal.Event) []string {
	v := s.ports.Validate()

	// Disk capacity: within a sub-batch files are only added (eviction
	// runs between sub-batches), so the high-water mark per node is the
	// initial usage plus every distinct staged file. The availability
	// time of each (node, file) copy is collected on the way.
	type nodeFile struct{ node, file int }
	avail := map[nodeFile]float64{}
	for n, files := range s.held {
		for _, f := range files {
			avail[nodeFile{n, f}] = s.base
		}
	}
	staged := map[nodeFile]bool{}
	used := make([]int64, len(s.ports.Compute))
	copy(used, s.used)
	for _, ev := range evs {
		if ev.Kind != journal.KindStage {
			continue
		}
		st := ev.Stage
		key := nodeFile{st.Dest, st.File}
		avail[key] = st.End
		if st.Dest < 0 || st.Dest >= len(used) {
			v = append(v, fmt.Sprintf("stage of file %d targets unknown node %d", st.File, st.Dest))
			continue
		}
		if st.End < s.base {
			v = append(v, fmt.Sprintf("stage of file %d on node %d completes at %g, before its sub-batch starts at %g", st.File, st.Dest, st.End, s.base))
		}
		if staged[key] {
			v = append(v, fmt.Sprintf("file %d staged twice onto node %d", st.File, st.Dest))
			continue
		}
		staged[key] = true
		used[st.Dest] += st.Bytes
	}
	for n, cap := range s.caps {
		if cap > 0 && used[n] > cap {
			v = append(v, fmt.Sprintf("compute[%d] disk over capacity: %d B used of %d B", n, used[n], cap))
		}
	}

	// Input availability.
	for _, ev := range evs {
		if ev.Kind != journal.KindExec {
			continue
		}
		x := ev.Exec
		if x.End < x.Start {
			v = append(v, fmt.Sprintf("task %d on compute[%d] ends (%g) before it starts (%g)", x.Task, x.Node, x.End, x.Start))
		}
		for _, f := range x.Inputs {
			at, ok := avail[nodeFile{x.Node, f}]
			if !ok {
				v = append(v, fmt.Sprintf("task %d starts on compute[%d] without input file %d ever staged there", x.Task, x.Node, f))
			} else if at > x.Start+gantt.OverlapEps {
				v = append(v, fmt.Sprintf("task %d starts at %g on compute[%d] but input file %d only arrives at %g", x.Task, x.Start, x.Node, f, at))
			}
		}
	}
	return v
}
