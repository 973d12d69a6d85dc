package gantt

import "fmt"

// Schedule is one sub-batch's port timelines. Validate re-checks the
// paper's single-port model on them; the committed stagings and
// executions are checked against the decision journal, which records
// them (core's Checked runs).
type Schedule struct {
	// Storage and Compute hold one single-port timeline per node; Link
	// is the optional shared inter-cluster link.
	Storage []*Timeline
	Compute []*Timeline
	Link    *Timeline
}

// Validate checks that every port timeline is sorted and overlap-free
// with non-negative durations (no port carries two reservations at
// once — the paper's single-port model), and returns one message per
// violation (empty means the timelines are sound).
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
	return v
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
