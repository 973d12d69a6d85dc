package core

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/gantt"
	"repro/internal/obs/journal"
)

// assertViolations asserts exactly one violation matching each
// substring, in order.
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

// staged is the journal event of a committed transfer of file onto
// node over [start, end).
func staged(file, node int, start, end float64, size int64) journal.Event {
	return journal.Event{T: start, Kind: journal.KindStage, Stage: &journal.Stage{
		File: file, Dest: node, Src: -1, Kind: "remote", Start: start, End: end, Bytes: size, Cause: "task"}}
}

// executed is the journal event of a committed execution.
func executed(task, node int, start, end float64, inputs ...int) journal.Event {
	return journal.Event{T: start, Kind: journal.KindExec, Exec: &journal.Exec{
		Task: task, Node: node, Start: start, End: end, Inputs: inputs}}
}

// checkFixture is a checked sub-batch with plain intervals, so
// recorded ones round-trip through JSON testdata: its port timelines,
// the disk state it started from and its journal events.
type checkFixture struct {
	Base     float64
	Storage  [][]gantt.Interval
	Compute  [][]gantt.Interval
	Link     []gantt.Interval
	DiskCap  []int64
	InitUsed []int64
	InitHeld [][]int
	Events   []journal.Event
}

func (f *checkFixture) start() *subBatchStart {
	s := &subBatchStart{base: f.Base, caps: f.DiskCap, used: f.InitUsed, held: f.InitHeld}
	for _, ivs := range f.Storage {
		s.ports.Storage = append(s.ports.Storage, gantt.NewTimelineFromIntervals(ivs))
	}
	for _, ivs := range f.Compute {
		s.ports.Compute = append(s.ports.Compute, gantt.NewTimelineFromIntervals(ivs))
	}
	if len(f.Link) > 0 {
		s.ports.Link = gantt.NewTimelineFromIntervals(f.Link)
	}
	return s
}

func (f *checkFixture) validate() []string { return f.start().validate(f.Events) }

func TestValidateCleanSchedule(t *testing.T) {
	storage := gantt.NewTimeline()
	compute := gantt.NewTimeline()
	storage.Reserve(0, 5)
	compute.Reserve(0, 5)  // transfer of file 7
	compute.Reserve(5, 10) // execution
	s := &subBatchStart{
		ports: gantt.Schedule{Storage: []*gantt.Timeline{storage}, Compute: []*gantt.Timeline{compute}},
		caps:  []int64{1000},
		used:  []int64{0},
		held:  [][]int{nil},
	}
	evs := []journal.Event{staged(7, 0, 0, 5, 100), executed(0, 0, 5, 15, 7)}
	if v := s.validate(evs); len(v) != 0 {
		t.Fatalf("clean schedule reported violations: %v", v)
	}
}

func TestValidateDetectsDiskOverCapacity(t *testing.T) {
	fix := checkFixture{
		Compute:  [][]gantt.Interval{nil},
		DiskCap:  []int64{1000},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
		Events:   []journal.Event{staged(1, 0, 0, 1, 600), staged(2, 0, 1, 2, 500)},
	}
	assertViolations(t, fix.validate(), "disk over capacity")

	// Unlimited disk (cap <= 0) never violates.
	fix.DiskCap[0] = 0
	if v := fix.validate(); len(v) != 0 {
		t.Fatalf("unlimited disk flagged: %v", v)
	}
}

func TestValidateCountsInitialUsage(t *testing.T) {
	fix := checkFixture{
		Compute:  [][]gantt.Interval{nil},
		DiskCap:  []int64{1000},
		InitUsed: []int64{500},
		InitHeld: [][]int{nil},
		Events:   []journal.Event{staged(1, 0, 0, 1, 600)},
	}
	assertViolations(t, fix.validate(), "disk over capacity")
}

func TestValidateDetectsMissingAndLateInputs(t *testing.T) {
	fix := checkFixture{
		Compute:  [][]gantt.Interval{nil},
		DiskCap:  []int64{0},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
		Events:   []journal.Event{staged(2, 0, 8, 9, 1), executed(0, 0, 3, 4, 1, 2)},
	}
	assertViolations(t, fix.validate(),
		"without input file 1 ever staged",
		"input file 2 only arrives at 9")

	// Initially-held files are available from the sub-batch's start.
	fix.InitHeld[0] = []int{1}
	fix.Events[0] = staged(2, 0, 2, 3, 1)
	if v := fix.validate(); len(v) != 0 {
		t.Fatalf("expected clean after fixes, got %v", v)
	}
}

func TestValidateDetectsDoubleStaging(t *testing.T) {
	fix := checkFixture{
		Compute:  [][]gantt.Interval{nil},
		DiskCap:  []int64{0},
		InitUsed: []int64{0},
		InitHeld: [][]int{nil},
		Events:   []journal.Event{staged(1, 0, 0, 1, 10), staged(1, 0, 1, 2, 10)},
	}
	assertViolations(t, fix.validate(), "staged twice")
}

// The fault-tolerant runtime burns the started portion of a failed
// transfer or a crash-killed execution as a plain reservation with no
// matching stage or exec event — the file never arrived, the task
// never finished; the journal records such a window as a transfer_fail
// or burn fault. These tests pin that a checked run accepts such
// recovery schedules while still holding them to every invariant.

func TestValidateAcceptsPreemptedPartialReservations(t *testing.T) {
	storage := gantt.NewTimeline()
	compute := gantt.NewTimeline()
	// Attempt 1 dies at t=3 (preempted, no stage event); the retry
	// [4, 8) succeeds and stages file 5.
	storage.Reserve(0, 3)
	compute.Reserve(0, 3)
	storage.Reserve(4, 4)
	compute.Reserve(4, 4)
	compute.Reserve(8, 2)
	s := &subBatchStart{
		ports: gantt.Schedule{Storage: []*gantt.Timeline{storage}, Compute: []*gantt.Timeline{compute}},
		caps:  []int64{100},
		used:  []int64{0},
		held:  [][]int{nil},
	}
	evs := []journal.Event{
		{T: 3, Kind: journal.KindFault, Fault: &journal.Fault{Class: journal.FaultTransferFail,
			Node: 0, Task: 0, File: 5, Attempt: 1, Start: 0}},
		staged(5, 0, 4, 8, 50),
		executed(0, 0, 8, 10, 5),
	}
	if v := s.validate(evs); len(v) != 0 {
		t.Fatalf("recovery schedule with preempted reservations flagged: %v", v)
	}
}

// TestValidateAcceptsCancelledSpeculativeReservations pins the port
// footprint a speculative twin leaves behind when it loses the race.
// Task 0's twin completed its input staging (ordinary reservations
// plus a stage event) before starting to execute, so its cancellation
// burns only the duplicate execution (a reservation with no exec
// event). Task 1's twin was cancelled mid-staging, leaving preempted
// partial reservations on both the storage and compute ports with no
// stage event at all. Both shapes must validate — only the winners'
// committed executions appear as exec events.
func TestValidateAcceptsCancelledSpeculativeReservations(t *testing.T) {
	fix := checkFixture{
		Storage: [][]gantt.Interval{{
			{Start: 0, End: 4},   // file 5 -> node 0 (winner)
			{Start: 4, End: 6},   // file 7 -> node 0 (winner)
			{Start: 6, End: 8},   // file 5 -> node 1 (twin of task 0, completed)
			{Start: 20, End: 21}, // file 7 -> node 1 (twin of task 1, cancelled mid-flight)
		}},
		Compute: [][]gantt.Interval{
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
		DiskCap:  []int64{200, 200},
		InitUsed: []int64{0, 0},
		InitHeld: [][]int{nil, nil},
		Events: []journal.Event{
			staged(5, 0, 0, 4, 50),
			staged(7, 0, 4, 6, 50),
			staged(5, 1, 6, 8, 50),
			executed(0, 0, 6, 16, 5),
			{T: 16, Kind: journal.KindFault, Fault: &journal.Fault{Class: journal.FaultBurn,
				Node: 1, Task: 0, File: -1, Start: 8}},
			executed(1, 0, 16, 22, 7),
			{T: 21, Kind: journal.KindFault, Fault: &journal.Fault{Class: journal.FaultBurn,
				Node: 1, Task: 1, File: 7, Start: 20}},
		},
	}
	if v := fix.validate(); len(v) != 0 {
		t.Fatalf("schedule with cancelled speculative reservations flagged: %v", v)
	}
	// Negative control: a twin's burn is a real port reservation, so
	// sliding it under a committed staging is still an overlap.
	broken := fix
	broken.Storage = [][]gantt.Interval{{
		{Start: 0, End: 4},
		{Start: 4, End: 6},
		{Start: 4.5, End: 5.5},
		{Start: 6, End: 8},
	}}
	assertViolations(t, broken.validate(), "reservations overlap")
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
		SubBatches []checkFixture `json:"sub_batches"`
	}
	if err := json.Unmarshal(data, &fix); err != nil {
		t.Fatal(err)
	}
	if len(fix.SubBatches) != 2 {
		t.Fatalf("fixture has %d sub-batches, want 2", len(fix.SubBatches))
	}
	for i := range fix.SubBatches {
		if v := fix.SubBatches[i].validate(); len(v) != 0 {
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
	// reservation (and no exec event) on the rebooted one.
	var execs []*journal.Exec
	var others []journal.Event
	for _, ev := range reboot.Events {
		if ev.Kind == journal.KindExec {
			execs = append(execs, ev.Exec)
		}
		if ev.Kind != journal.KindStage {
			others = append(others, ev)
		}
	}
	if len(execs) != 2 {
		t.Fatalf("fixture drifted: sub-batch 1 has %d committed tasks, want 2", len(execs))
	}
	twinBurn := reboot.Compute[1][len(reboot.Compute[1])-1]
	for _, x := range execs {
		start, end := x.Start-reboot.Base, x.End-reboot.Base
		if x.Node == 1 && start < twinBurn.End && twinBurn.Start < end {
			t.Fatalf("fixture drifted: task %d committed inside the cancelled twin's burn", x.Task)
		}
	}
	// Negative control: without the recovery re-staging, the task on
	// the rebooted node runs without its input.
	broken := reboot
	broken.Events = others
	assertViolations(t, broken.validate(), "without input file 0 ever staged")
}
