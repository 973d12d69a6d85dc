package gantt

import "testing"

// The fault-tolerant runtime burns the started portion of a failed
// transfer or a crash-killed execution as a plain reservation: the
// file never arrived, the task never finished, and the decision
// journal records the window as a transfer_fail or burn fault. These
// tests pin that Validate accepts such preempted reservations while
// holding them to the port invariants; core's tests of the same names
// check the journal events of those schedules too.

func TestValidateAcceptsPreemptedPartialReservations(t *testing.T) {
	storage := NewTimeline()
	compute := NewTimeline()
	// Attempt 1 dies at t=3 (preempted); the retry [4, 8) succeeds and
	// the task runs [8, 10).
	storage.Reserve(0, 3)
	compute.Reserve(0, 3)
	storage.Reserve(4, 4)
	compute.Reserve(4, 4)
	compute.Reserve(8, 2)
	s := &Schedule{Storage: []*Timeline{storage}, Compute: []*Timeline{compute}}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("recovery schedule with preempted reservations flagged: %v", v)
	}
}

func TestValidatePreemptedReservationsStillCheckOverlap(t *testing.T) {
	// A preempted reservation gets no special exemption: overlapping
	// the retry is still a port violation.
	tl := NewTimelineFromIntervals([]Interval{
		{Start: 0, End: 3},
		{Start: 2, End: 6},
	})
	s := &Schedule{Compute: []*Timeline{tl}}
	assertViolations(t, s.Validate(), "reservations overlap")
}

func TestValidateZeroLengthPreemption(t *testing.T) {
	// A transfer killed at its start instant leaves a zero-length
	// interval; that is sound (and distinct from a negative one).
	tl := NewTimelineFromIntervals([]Interval{
		{Start: 2, End: 2},
		{Start: 2, End: 5},
	})
	s := &Schedule{Compute: []*Timeline{tl}}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("zero-length preemption flagged: %v", v)
	}
}

// TestValidateAcceptsCancelledSpeculativeReservations pins the port
// footprint a speculative twin leaves behind when it loses the race:
// task 0's twin staged its input and had its duplicate execution
// burnt at the primary's finish; task 1's twin was cancelled
// mid-staging, leaving preempted partial reservations on both its
// ports. The timelines must validate.
func TestValidateAcceptsCancelledSpeculativeReservations(t *testing.T) {
	storage := []Interval{
		{Start: 0, End: 4},   // file 5 -> node 0 (winner)
		{Start: 4, End: 6},   // file 7 -> node 0 (winner)
		{Start: 6, End: 8},   // file 5 -> node 1 (twin of task 0, completed)
		{Start: 20, End: 21}, // file 7 -> node 1 (twin of task 1, cancelled mid-flight)
	}
	compute := [][]Interval{
		{
			{Start: 0, End: 4},
			{Start: 4, End: 6},
			{Start: 6, End: 16},  // task 0 primary wins at 16
			{Start: 16, End: 22}, // task 1 primary wins at 22
		},
		{
			{Start: 6, End: 8},   // twin of task 0 stages its input
			{Start: 8, End: 16},  // twin of task 0 execution, burnt at the primary's finish
			{Start: 20, End: 21}, // twin of task 1 staging, burnt mid-transfer
		},
	}
	s := &Schedule{
		Storage: []*Timeline{NewTimelineFromIntervals(storage)},
		Compute: []*Timeline{NewTimelineFromIntervals(compute[0]), NewTimelineFromIntervals(compute[1])},
	}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("schedule with cancelled speculative reservations flagged: %v", v)
	}
	// Negative control: a twin's burn is a real port reservation, so
	// sliding it under a committed staging is still an overlap.
	s.Storage[0] = NewTimelineFromIntervals([]Interval{
		{Start: 0, End: 4},
		{Start: 4, End: 6},
		{Start: 4.5, End: 5.5},
		{Start: 6, End: 8},
	})
	assertViolations(t, s.Validate(), "reservations overlap")
}
