package gantt

import (
	"strings"
	"testing"
)

// assertViolations asserts exactly one violation matching each substring.
func assertViolations(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("expected %d violation(s), got %d: %v", len(want), len(got), got)
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("violation %d = %q, want substring %q", i, got[i], w)
		}
	}
}

// TestValidateCleanSchedule: the port timelines of a clean sub-batch
// (one transfer, then the execution that reads it) validate. Core's
// test of the same name checks its journal events too.
func TestValidateCleanSchedule(t *testing.T) {
	storage := NewTimeline()
	compute := NewTimeline()
	storage.Reserve(0, 5)
	compute.Reserve(0, 5)  // transfer of file 7
	compute.Reserve(5, 10) // execution
	s := &Schedule{Storage: []*Timeline{storage}, Compute: []*Timeline{compute}}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("clean schedule reported violations: %v", v)
	}
}

func TestValidateDetectsPortOverlap(t *testing.T) {
	tl := NewTimelineFromIntervals([]Interval{{Start: 0, End: 5}, {Start: 4, End: 8}})
	s := &Schedule{Compute: []*Timeline{tl}}
	assertViolations(t, s.Validate(), "reservations overlap")
}

func TestValidateDetectsOutOfOrderAndNegative(t *testing.T) {
	tl := NewTimelineFromIntervals([]Interval{{Start: 6, End: 8}, {Start: 0, End: 5}})
	s := &Schedule{Storage: []*Timeline{tl}}
	got := s.Validate()
	if len(got) == 0 || !strings.Contains(got[0], "out of order") {
		t.Fatalf("expected out-of-order violation, got %v", got)
	}

	tl2 := NewTimelineFromIntervals([]Interval{{Start: 3, End: 1}})
	s2 := &Schedule{Storage: []*Timeline{tl2}}
	assertViolations(t, s2.Validate(), "negative duration")
}

// TestExecutedSchedulesValidate ties the two layers together at the
// gantt level: a timeline built only through EarliestSlot+Reserve must
// always validate.
func TestExecutedSchedulesValidate(t *testing.T) {
	tl := NewTimeline()
	durs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for i, d := range durs {
		s := tl.EarliestSlot(float64(i%3), d)
		tl.Reserve(s, d)
	}
	s := &Schedule{Compute: []*Timeline{tl}}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("reserve-built timeline invalid: %v", v)
	}
}
