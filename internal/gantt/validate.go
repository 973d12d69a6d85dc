package gantt

import (
	"fmt"
	"strings"
)

// This file is the runtime half of the determinism/correctness
// contract: where cmd/schedlint proves properties of the code, the
// Schedule validator proves properties of an actual schedule the
// executor produced. The two layers cover each other — a solver bug
// the static checks cannot see (a capacity miscount, a task started
// before its inputs arrive) surfaces here, and vice versa.

// StageEvent records one file arrival on a compute node, in sub-batch
// relative time.
type StageEvent struct {
	File int
	Node int
	// Avail is when the file's transfer completes (the earliest time a
	// task may read it).
	Avail float64
	// Size in bytes, for disk accounting.
	Size int64
}

// TaskEvent records one task execution, in sub-batch relative time.
type TaskEvent struct {
	Task  int
	Node  int
	Start float64
	End   float64
	// Inputs are the file IDs the task reads.
	Inputs []int
}

// Schedule is a complete post-hoc record of one sub-batch: every port
// timeline plus the staging and execution events, with enough initial
// state to re-check the paper's standing invariants.
type Schedule struct {
	// Storage and Compute hold one single-port timeline per node; Link
	// is the optional shared inter-cluster link.
	Storage []*Timeline
	Compute []*Timeline
	Link    *Timeline

	Stages []StageEvent
	Tasks  []TaskEvent

	// DiskCap[n] is compute node n's disk capacity in bytes (<= 0
	// means unlimited).
	DiskCap []int64
	// InitUsed[n] is the bytes already resident on node n when the
	// sub-batch starts.
	InitUsed []int64
	// InitHeld[n] lists the files already resident on node n when the
	// sub-batch starts.
	InitHeld [][]int
}

// Validate checks the schedule's invariants and returns one message
// per violation (empty means the schedule is sound):
//
//  1. every port timeline is sorted and overlap-free with non-negative
//     durations (no port carries two reservations at once — the
//     paper's single-port model);
//  2. no compute node's disk ever holds more bytes than its capacity;
//  3. every input file of every task is resident — initially held or
//     staged with Avail ≤ task start — before the task begins.
func (s *Schedule) Validate() []string {
	var v []string
	for i, tl := range s.Storage {
		v = appendTimelineViolations(v, fmt.Sprintf("storage[%d]", i), tl)
	}
	for i, tl := range s.Compute {
		v = appendTimelineViolations(v, fmt.Sprintf("compute[%d]", i), tl)
	}
	if s.Link != nil {
		v = appendTimelineViolations(v, "link", s.Link)
	}

	// Disk capacity: within a sub-batch files are only added (eviction
	// runs between sub-batches), so the high-water mark per node is the
	// initial usage plus every distinct staged file.
	type nodeFile struct{ node, file int }
	staged := map[nodeFile]bool{}
	used := make([]int64, len(s.Compute))
	copy(used, s.InitUsed)
	for _, st := range s.Stages {
		if st.Node < 0 || st.Node >= len(s.Compute) {
			v = append(v, fmt.Sprintf("stage of file %d targets unknown node %d", st.File, st.Node))
			continue
		}
		if st.Avail < 0 {
			v = append(v, fmt.Sprintf("stage of file %d on node %d completes at negative time %g", st.File, st.Node, st.Avail))
		}
		key := nodeFile{st.Node, st.File}
		if staged[key] {
			v = append(v, fmt.Sprintf("file %d staged twice onto node %d", st.File, st.Node))
			continue
		}
		staged[key] = true
		used[st.Node] += st.Size
	}
	for n, cap := range s.DiskCap {
		if cap > 0 && used[n] > cap {
			v = append(v, fmt.Sprintf("compute[%d] disk over capacity: %d B used of %d B", n, used[n], cap))
		}
	}

	// Input availability: build the per-(node, file) availability time
	// from initial holdings and stagings, then check every task.
	avail := map[nodeFile]float64{}
	for n, files := range s.InitHeld {
		for _, f := range files {
			avail[nodeFile{n, f}] = 0
		}
	}
	for _, st := range s.Stages {
		avail[nodeFile{st.Node, st.File}] = st.Avail
	}
	for _, t := range s.Tasks {
		if t.End < t.Start {
			v = append(v, fmt.Sprintf("task %d on compute[%d] ends (%g) before it starts (%g)", t.Task, t.Node, t.End, t.Start))
		}
		for _, f := range t.Inputs {
			at, ok := avail[nodeFile{t.Node, f}]
			if !ok {
				v = append(v, fmt.Sprintf("task %d starts on compute[%d] without input file %d ever staged there", t.Task, t.Node, f))
			} else if at > t.Start+OverlapEps {
				v = append(v, fmt.Sprintf("task %d starts at %g on compute[%d] but input file %d only arrives at %g", t.Task, t.Start, t.Node, f, at))
			}
		}
	}
	return v
}

// Err wraps Validate into a single error (nil when sound).
func (s *Schedule) Err() error {
	if v := s.Validate(); len(v) > 0 {
		return fmt.Errorf("gantt: invalid schedule:\n  %s", strings.Join(v, "\n  "))
	}
	return nil
}

// appendTimelineViolations checks one timeline's ordering and overlap
// invariants, independently of the Reserve-time panics (so a corrupted
// or hand-built timeline is still diagnosed rather than trusted).
func appendTimelineViolations(v []string, name string, t *Timeline) []string {
	ivs := t.Intervals()
	for i, iv := range ivs {
		if iv.End < iv.Start {
			v = append(v, fmt.Sprintf("%s interval %d has negative duration [%g,%g)", name, i, iv.Start, iv.End))
		}
		if iv.Start < 0 {
			v = append(v, fmt.Sprintf("%s interval %d starts at negative time %g", name, i, iv.Start))
		}
		if i > 0 {
			prev := ivs[i-1]
			if iv.Start < prev.Start {
				v = append(v, fmt.Sprintf("%s intervals out of order: [%g,%g) after [%g,%g)", name, iv.Start, iv.End, prev.Start, prev.End))
			}
			if prev.End > iv.Start+OverlapEps {
				v = append(v, fmt.Sprintf("%s reservations overlap: [%g,%g) and [%g,%g)", name, prev.Start, prev.End, iv.Start, iv.End))
			}
		}
	}
	return v
}

// NewTimelineFromIntervals builds a timeline directly from a list of
// intervals with no checking or normalization whatsoever — for
// reconstructing recorded schedules and for exercising Validate on
// deliberately broken input. Slot queries on an unsorted or
// overlapping timeline are meaningless; run Validate first.
func NewTimelineFromIntervals(ivs []Interval) *Timeline {
	t := &Timeline{}
	for len(ivs) > 0 {
		n := len(ivs)
		if n > chunkTarget {
			n = chunkTarget
		}
		c := chunk{ivs: append([]Interval(nil), ivs[:n]...)}
		c.recalcGap()
		t.chunks = append(t.chunks, c)
		t.n += n
		ivs = ivs[n:]
	}
	t.recalcMetasFrom(0)
	return t
}
