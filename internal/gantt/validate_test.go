package gantt

import (
	"strings"
	"testing"
)

// hasViolation asserts exactly one violation matching each substring.
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

func TestValidateCleanSchedule(t *testing.T) {
	storage := NewTimeline()
	compute := NewTimeline()
	storage.Reserve(0, 5)
	compute.Reserve(0, 5)  // transfer of file 7
	compute.Reserve(5, 10) // execution
	s := &Schedule{
		Storage:  []*Timeline{storage},
		Compute:  []*Timeline{compute},
		Stages:   []StageEvent{{File: 7, Node: 0, Avail: 5, Size: 100}},
		Tasks:    []TaskEvent{{Task: 0, Node: 0, Start: 5, End: 15, Inputs: []int{7}}},
		DiskCap:  []int64{1000},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
	}
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("clean schedule reported violations: %v", v)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err() on clean schedule: %v", err)
	}
}

func TestValidateDetectsPortOverlap(t *testing.T) {
	tl := NewTimelineFromIntervals([]Interval{{Start: 0, End: 5}, {Start: 4, End: 8}})
	s := &Schedule{Compute: []*Timeline{tl}}
	assertViolations(t, s.Validate(), "reservations overlap")
	if err := s.Err(); err == nil {
		t.Fatal("Err() returned nil for overlapping schedule")
	}
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

func TestValidateDetectsDiskOverCapacity(t *testing.T) {
	s := &Schedule{
		Compute:  []*Timeline{NewTimeline()},
		Stages:   []StageEvent{{File: 1, Node: 0, Avail: 1, Size: 600}, {File: 2, Node: 0, Avail: 2, Size: 500}},
		DiskCap:  []int64{1000},
		InitUsed: []int64{0},
	}
	assertViolations(t, s.Validate(), "disk over capacity")

	// Unlimited disk (cap <= 0) never violates.
	s.DiskCap[0] = 0
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("unlimited disk flagged: %v", v)
	}
}

func TestValidateCountsInitialUsage(t *testing.T) {
	s := &Schedule{
		Compute:  []*Timeline{NewTimeline()},
		Stages:   []StageEvent{{File: 1, Node: 0, Avail: 1, Size: 600}},
		DiskCap:  []int64{1000},
		InitUsed: []int64{500},
	}
	assertViolations(t, s.Validate(), "disk over capacity")
}

func TestValidateDetectsMissingAndLateInputs(t *testing.T) {
	s := &Schedule{
		Compute:  []*Timeline{NewTimeline()},
		Stages:   []StageEvent{{File: 2, Node: 0, Avail: 9, Size: 1}},
		Tasks:    []TaskEvent{{Task: 0, Node: 0, Start: 3, End: 4, Inputs: []int{1, 2}}},
		DiskCap:  []int64{0},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
	}
	assertViolations(t, s.Validate(),
		"without input file 1 ever staged",
		"input file 2 only arrives at 9")

	// Initially-held files are available from time 0.
	s.InitHeld[0] = []int{1}
	s.Stages[0].Avail = 3
	if v := s.Validate(); len(v) != 0 {
		t.Fatalf("expected clean after fixes, got %v", v)
	}
}

func TestValidateDetectsDoubleStaging(t *testing.T) {
	s := &Schedule{
		Compute:  []*Timeline{NewTimeline()},
		Stages:   []StageEvent{{File: 1, Node: 0, Avail: 1, Size: 10}, {File: 1, Node: 0, Avail: 2, Size: 10}},
		DiskCap:  []int64{0},
		InitUsed: []int64{0},
	}
	assertViolations(t, s.Validate(), "staged twice")
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
