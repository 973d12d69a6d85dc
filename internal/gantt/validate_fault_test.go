package gantt

import (
	"encoding/json"
	"os"
	"testing"
)

// The fault-tolerant runtime burns the started portion of a failed
// transfer or a crash-killed execution as a plain reservation with no
// matching StageEvent or TaskEvent — the file never arrived, the task
// never finished. (The decision journal records such a window as a
// transfer_fail or burn fault; the Gantt chart only sees port time.)
// These tests pin that Validate accepts such recovery schedules while
// still holding them to every invariant.

func TestValidateAcceptsPreemptedPartialReservations(t *testing.T) {
	storage := NewTimeline()
	compute := NewTimeline()
	// Attempt 1 dies at t=3 (preempted, no stage event); the retry
	// [4, 8) succeeds and stages file 5.
	storage.Reserve(0, 3)
	compute.Reserve(0, 3)
	storage.Reserve(4, 4)
	compute.Reserve(4, 4)
	compute.Reserve(8, 2)
	s := &Schedule{
		Storage:  []*Timeline{storage},
		Compute:  []*Timeline{compute},
		Stages:   []StageEvent{{File: 5, Node: 0, Avail: 8, Size: 50}},
		Tasks:    []TaskEvent{{Task: 0, Node: 0, Start: 8, End: 10, Inputs: []int{5}}},
		DiskCap:  []int64{100},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
	}
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
// footprint a speculative twin leaves behind when it loses the race.
// Task 0's twin completed its input staging (ordinary reservations
// plus a StageEvent) before starting to execute, so its cancellation
// burns only the duplicate execution (a reservation with no
// TaskEvent). Task 1's twin was cancelled mid-staging, leaving
// preempted partial reservations on both the storage and compute
// ports with no StageEvent at all. Both shapes must validate — only
// the winners' committed executions appear as TaskEvents.
func TestValidateAcceptsCancelledSpeculativeReservations(t *testing.T) {
	fix := fixtureSchedule{
		Storage: [][]Interval{{
			{Start: 0, End: 4},   // file 5 -> node 0 (winner)
			{Start: 4, End: 6},   // file 7 -> node 0 (winner)
			{Start: 6, End: 8},   // file 5 -> node 1 (twin of task 0, completed)
			{Start: 20, End: 21}, // file 7 -> node 1 (twin of task 1, cancelled mid-flight)
		}},
		Compute: [][]Interval{
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
		},
		Stages: []StageEvent{
			{File: 5, Node: 0, Avail: 4, Size: 50},
			{File: 7, Node: 0, Avail: 6, Size: 50},
			{File: 5, Node: 1, Avail: 8, Size: 50},
		},
		Tasks: []TaskEvent{
			{Task: 0, Node: 0, Start: 6, End: 16, Inputs: []int{5}},
			{Task: 1, Node: 0, Start: 16, End: 22, Inputs: []int{7}},
		},
		DiskCap:  []int64{200, 200},
		InitUsed: []int64{0, 0},
		InitHeld: [][]int{nil, nil},
	}
	if v := fix.schedule().Validate(); len(v) != 0 {
		t.Fatalf("schedule with cancelled speculative reservations flagged: %v", v)
	}
	// Negative control: a twin's burn is a real port reservation, so
	// sliding it under a committed staging is still an overlap.
	broken := fix
	broken.Storage = [][]Interval{{
		{Start: 0, End: 4},
		{Start: 4, End: 6},
		{Start: 4.5, End: 5.5},
		{Start: 6, End: 8},
	}}
	assertViolations(t, broken.schedule().Validate(), "reservations overlap")
}

// fixtureSchedule mirrors Schedule with plain intervals so recorded
// schedules round-trip through JSON testdata.
type fixtureSchedule struct {
	Storage  [][]Interval
	Compute  [][]Interval
	Link     []Interval
	Stages   []StageEvent
	Tasks    []TaskEvent
	DiskCap  []int64
	InitUsed []int64
	InitHeld [][]int
}

func (f *fixtureSchedule) schedule() *Schedule {
	s := &Schedule{
		Stages:   f.Stages,
		Tasks:    f.Tasks,
		DiskCap:  f.DiskCap,
		InitUsed: f.InitUsed,
		InitHeld: f.InitHeld,
	}
	for _, ivs := range f.Storage {
		s.Storage = append(s.Storage, NewTimelineFromIntervals(ivs))
	}
	for _, ivs := range f.Compute {
		s.Compute = append(s.Compute, NewTimelineFromIntervals(ivs))
	}
	if len(f.Link) > 0 {
		s.Link = NewTimelineFromIntervals(f.Link)
	}
	return s
}

// TestCrashRecoveryFixture replays a recorded two-sub-batch recovery:
// compute[1] crashes mid-transfer in sub-batch 0 (preempted partial
// reservation, cache dropped at the boundary) and rejoins empty in
// sub-batch 1, where its input is re-staged from the surviving
// replica. Both schedules must be sound — and the fixture must
// actually bite: deleting the re-staging makes sub-batch 1 invalid.
func TestCrashRecoveryFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/crash_recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	var fix struct {
		SubBatches []fixtureSchedule `json:"sub_batches"`
	}
	if err := json.Unmarshal(data, &fix); err != nil {
		t.Fatal(err)
	}
	if len(fix.SubBatches) != 2 {
		t.Fatalf("fixture has %d sub-batches, want 2", len(fix.SubBatches))
	}
	for i := range fix.SubBatches {
		if v := fix.SubBatches[i].schedule().Validate(); len(v) != 0 {
			t.Errorf("sub-batch %d invalid: %v", i, v)
		}
	}
	// The crashed node must have rebooted empty.
	reboot := fix.SubBatches[1]
	if reboot.InitUsed[1] != 0 || len(reboot.InitHeld[1]) != 0 {
		t.Fatal("fixture drifted: crashed node no longer rejoins with an empty cache")
	}
	// The fixture carries one speculated task: task 2 commits on the
	// surviving node while its cancelled twin leaves a burned
	// reservation (and no TaskEvent) on the rebooted one.
	if len(reboot.Tasks) != 2 {
		t.Fatalf("fixture drifted: sub-batch 1 has %d committed tasks, want 2", len(reboot.Tasks))
	}
	twinBurn := reboot.Compute[1][len(reboot.Compute[1])-1]
	for _, te := range reboot.Tasks {
		if te.Node == 1 && te.Start < twinBurn.End && twinBurn.Start < te.End {
			t.Fatalf("fixture drifted: task %d committed inside the cancelled twin's burn", te.Task)
		}
	}
	// Negative control: without the recovery re-staging, the task on
	// the rebooted node runs without its input.
	broken := reboot
	broken.Stages = nil
	assertViolations(t, broken.schedule().Validate(), "without input file 0 ever staged")
}
