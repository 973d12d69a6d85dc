// Package journal records decision provenance: an append-only,
// strictly-ordered event log of every pipeline decision — per-task
// placement rationale (candidates considered, scores, rejections),
// file staging/replication source choices with the alternatives they
// beat, eviction victims with their policy scores, and fault/recovery
// events.
//
// The journal is the introspection substrate the explain CLI and the
// live event bus are built on, and the determinism contract extends to
// it: every timestamp is simulated time, events are emitted only from
// the sequential sections of the pipeline (the run loop, plan
// construction, the commit paths of the §6 executor), and per-cell
// recorders are merged in deterministic index order — so the JSONL
// bytes for a fixed seed are identical at any -workers count.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event kinds. One Event carries exactly one non-nil payload,
// matching its Kind.
const (
	KindRunStart  = "run_start" // Run: a batch run begins
	KindPlan      = "plan"      // Plan: one sub-batch planned (summary)
	KindPlace     = "place"     // Place: one task→node decision with rationale
	KindReplicate = "replicate" // Replicate: a planner-directed replication decision

	KindStage  = "stage"   // Stage: one committed file transfer
	KindExec   = "exec"    // Exec: one committed task execution
	KindEvict  = "evict"   // Evict: one file copy evicted, with score
	KindFault  = "fault"   // Fault: failure/recovery activity
	KindCell   = "cell"    // Run: experiment-harness cell marker
	KindRunEnd = "run_end" // Run: the batch run finished

	KindSpecLaunch = "spec_launch" // Spec: a speculative twin forked
	KindSpecWin    = "spec_win"    // Spec: the first finisher decided the task
	KindSpecCancel = "spec_cancel" // Spec: the losing attempt cancelled
)

// Event is one journal entry. T is absolute simulated seconds (never
// wall clock). Round is the sub-batch ordinal the event belongs to.
// Exactly one payload pointer is set, per Kind; pointers keep the
// JSONL lines compact while zero-valued IDs (task 0, node 0) survive
// round-trips.
type Event struct {
	Seq   int     `json:"seq"`
	T     float64 `json:"t"`
	Kind  string  `json:"kind"`
	Round int     `json:"round"`

	Place     *Place     `json:"place,omitempty"`
	Replicate *Replicate `json:"replicate,omitempty"`
	Stage     *Stage     `json:"stage,omitempty"`
	Exec      *Exec      `json:"exec,omitempty"`
	Evict     *Evict     `json:"evict,omitempty"`
	Fault     *Fault     `json:"fault,omitempty"`
	Plan      *Plan      `json:"plan,omitempty"`
	Run       *Run       `json:"run,omitempty"`
	Spec      *Spec      `json:"spec,omitempty"`
}

// Candidate is one node a scheduler considered for a task placement.
type Candidate struct {
	Node int `json:"node"`
	// Score is the scheduler's figure of merit for this candidate
	// (lower is better for completion-time scores).
	Score float64 `json:"score"`
	// Fits reports whether the task's working set fit the node's disk
	// at decision time.
	Fits bool `json:"fits"`
}

// Place records why a task was mapped to its node.
type Place struct {
	Task int `json:"task"`
	Node int `json:"node"`
	// Policy names the deciding rule, e.g. "minmin-ect",
	// "jdp-data-present", "kway-partition", "ip-allocation".
	Policy string `json:"policy"`
	// Score is the chosen node's score under Policy (0 when the policy
	// has no per-node score, e.g. partition assignment).
	Score float64 `json:"score"`
	// Candidates lists the alternatives considered, including the
	// chosen node, in node order. Empty when the policy does not
	// enumerate per-node alternatives.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Reason is a short human-readable rationale.
	Reason string `json:"reason,omitempty"`
}

// Replicate records a planner-directed replication decision (made
// before execution; the matching Stage event records the commit).
type Replicate struct {
	File int `json:"file"`
	Dest int `json:"dest"`
	// Src is the source compute node, -1 for a remote push from the
	// file's storage home.
	Src    int    `json:"src"`
	Policy string `json:"policy"`
	// Popularity/Threshold document a popularity-triggered decision
	// (the JDP DataLeastLoaded daemon).
	Popularity int    `json:"popularity,omitempty"`
	Threshold  int    `json:"threshold,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// SourceAlt is one staging source considered and its transfer
// completion time; Src -1 means the file's storage home.
type SourceAlt struct {
	Src int     `json:"src"`
	TCT float64 `json:"tct"`
}

// Stage records one committed file transfer.
type Stage struct {
	File int `json:"file"`
	Dest int `json:"dest"`
	// Src is the source compute node for replica copies, -1 for
	// remote stagings from the storage cluster.
	Src  int `json:"src"`
	Home int `json:"home"`
	// Kind is "remote" or "replica".
	Kind  string  `json:"kind"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Bytes int64   `json:"bytes"`
	// Cause is "task" (staged on demand for Task), "prestage" (a
	// planner-directed movement, e.g. the JDP replication daemon), or
	// "retry" (a fault-recovery re-attempt for Task).
	Cause string `json:"cause"`
	// Task is the task whose inputs forced this transfer, -1 for
	// pre-staging.
	Task int `json:"task"`
	// Attempt numbers fault-injected attempts (1 = first try); 0 on
	// fault-free runs.
	Attempt int `json:"attempt,omitempty"`
	// Alternatives lists the sources evaluated when this transfer's
	// source was chosen dynamically (min-TCT, §6), including the
	// winner. Empty for pinned-plan and retry transfers.
	Alternatives []SourceAlt `json:"alternatives,omitempty"`
}

// Exec records one committed task execution.
type Exec struct {
	Task   int     `json:"task"`
	Node   int     `json:"node"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Inputs []int   `json:"inputs,omitempty"`
}

// Evict records one evicted file copy with the policy score that
// condemned it (lower scores are evicted first).
type Evict struct {
	Node   int     `json:"node"`
	File   int     `json:"file"`
	Bytes  int64   `json:"bytes"`
	Score  float64 `json:"score"`
	Policy string  `json:"policy"`
}

// Fault classes.
const (
	FaultTransferFail = "transfer_fail" // a transfer attempt died partway
	FaultCrash        = "crash"         // a node crashed (boundary consumption)
	FaultStraggler    = "straggler"     // an execution was stretched
	FaultRequeue      = "requeue"       // a task was interrupted and re-queued
	FaultAbandon      = "abandon"       // a task's retry budget ran out
	FaultBurn         = "burn"          // a killed or cancelled attempt's reservation [Start, T) on Node
)

// Fault records failure/recovery activity. Task and File are -1 when
// not applicable. Classes that burned port time (transfer_fail, burn)
// carry the burned window as [Start, T) on Node's port, Start in
// absolute simulated seconds.
type Fault struct {
	Class   string  `json:"class"`
	Node    int     `json:"node"`
	Task    int     `json:"task"`
	File    int     `json:"file"`
	Attempt int     `json:"attempt,omitempty"`
	Factor  float64 `json:"factor,omitempty"`
	Start   float64 `json:"start,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// Spec records speculative-execution activity for one task: the
// launch of a duplicate attempt (spec_launch, with the candidate
// nodes considered), the first-finisher decision (spec_win) and the
// cancellation of the losing attempt (spec_cancel). All times are
// absolute simulated seconds; PrimaryEnd/TwinEnd are −1 when that
// attempt never finishes (crash-killed) — JSON has no +Inf.
type Spec struct {
	Task int `json:"task"`
	// Node is the primary attempt's compute node, Twin the duplicate's.
	Node int `json:"node"`
	Twin int `json:"twin"`
	// Policy names the speculation policy that fired; Threshold is its
	// elapsed-time watchdog threshold t* in seconds.
	Policy    string  `json:"policy,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// PrimaryEnd/TwinEnd are the attempts' projected finish times
	// (−1 = never finishes).
	PrimaryEnd float64 `json:"primary_end,omitempty"`
	TwinEnd    float64 `json:"twin_end,omitempty"`
	// Winner is "primary", "twin", or "none" (both attempts died).
	Winner string `json:"winner,omitempty"`
	// WastedS is the port time the cancelled attempt burnt.
	WastedS float64 `json:"wasted_s,omitempty"`
	// Candidates lists the twin hosts evaluated at launch (score =
	// projected twin completion time), including the chosen node.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Reason is a short human-readable rationale.
	Reason string `json:"reason,omitempty"`
}

// Plan summarizes one sub-batch plan. The round's Place events
// (emitted by the scheduler while planning) precede it.
type Plan struct {
	Sched     string `json:"sched"`
	Pending   int    `json:"pending"`
	Planned   int    `json:"planned"`
	Pinned    bool   `json:"pinned,omitempty"`
	PreStages int    `json:"prestages,omitempty"`
}

// Run marks a batch run's start/end (or an experiment cell boundary).
type Run struct {
	Sched      string  `json:"sched"`
	Tasks      int     `json:"tasks,omitempty"`
	Status     string  `json:"status,omitempty"`
	Makespan   float64 `json:"makespan,omitempty"`
	SubBatches int     `json:"subbatches,omitempty"`
	// Label identifies an experiment cell when the harness merges
	// per-cell journals.
	Label string `json:"label,omitempty"`
}

// Recorder collects events in emission order. All methods are safe
// for concurrent use and no-ops on a nil receiver, so call sites
// never guard against an absent journal.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	tap    func(Event)
}

// New returns an empty Recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether events will be kept. It lets call sites
// skip building expensive rationale payloads when no journal is
// attached.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit appends ev, assigning the next sequence number. The tap, if
// set, observes the event synchronously in sequence order.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev.Seq = len(r.events)
	r.events = append(r.events, ev)
	tap := r.tap
	if tap != nil {
		// Called under the lock so taps observe events in strict
		// sequence order. Taps must be fast, must not block, and must
		// not call back into the Recorder (the introspect bus hands
		// events to bounded buffers and drops on overflow).
		tap(ev)
	}
	r.mu.Unlock()
}

// SetTap installs fn as the synchronous event observer (nil removes
// it). See Emit for the tap contract.
func (r *Recorder) SetTap(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = fn
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in sequence order.
func (r *Recorder) Events() []Event { return r.Since(0) }

// Since returns a copy of the events from sequence number i on.
func (r *Recorder) Since(i int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events[min(i, len(r.events)):]...)
}

// Merge appends all of o's events to r in o's recorded order,
// re-assigning sequence numbers. Callers must merge per-cell
// recorders in deterministic index order (the experiment harness
// does), which keeps merged bytes identical at any worker count.
//
// o is snapshotted under its own lock before r's lock is taken, so
// the two mutexes are never held together (lockorder-safe, same
// pattern as Metrics.Merge).
func (r *Recorder) Merge(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	events := o.Events()
	r.mu.Lock()
	for _, ev := range events {
		ev.Seq = len(r.events)
		r.events = append(r.events, ev)
		if r.tap != nil {
			r.tap(ev)
		}
	}
	r.mu.Unlock()
}

// WriteJSONL writes one compact JSON object per line in sequence
// order. Field order is fixed by the struct definitions and all
// timestamps are simulated, so the bytes for a fixed seed are
// identical at any worker count.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("journal: marshal event %d: %w", ev.Seq, err)
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("journal: write event %d: %w", ev.Seq, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a journal written by WriteJSONL. Blank lines are
// skipped; any other malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return out, nil
}
