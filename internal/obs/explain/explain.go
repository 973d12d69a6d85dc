// Package explain answers provenance queries over a decision journal
// (internal/obs/journal): why a task ran where it did, why a file was
// replicated to or evicted from a node, and which chain of events
// bound the makespan. It is the engine behind cmd/schedexplain and the
// introspect server's query endpoints.
package explain

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/obs/journal"
)

// timeEps is the slack used when chaining event boundaries: journal
// times are sums of float64 durations, so "ends when the next starts"
// holds only up to accumulated rounding.
const timeEps = 1e-6

// Journal is an indexed event log ready for queries.
type Journal struct {
	Events []journal.Event

	placeByTask map[int][]int // event indices, emission order
	execByTask  map[int][]int
	stageByTask map[int][]int
	faultByTask map[int][]int
	specByTask  map[int][]int
	fileEvents  map[int][]int // replicate/stage/evict/fault touching a file
}

// Load reads a JSONL journal and indexes it.
func Load(r io.Reader) (*Journal, error) {
	evs, err := journal.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return FromEvents(evs), nil
}

// FromEvents indexes an in-memory event slice (shared, not copied).
func FromEvents(evs []journal.Event) *Journal {
	j := &Journal{
		Events:      evs,
		placeByTask: map[int][]int{},
		execByTask:  map[int][]int{},
		stageByTask: map[int][]int{},
		faultByTask: map[int][]int{},
		specByTask:  map[int][]int{},
		fileEvents:  map[int][]int{},
	}
	for i, ev := range evs {
		switch {
		case ev.Place != nil:
			j.placeByTask[ev.Place.Task] = append(j.placeByTask[ev.Place.Task], i)
		case ev.Exec != nil:
			j.execByTask[ev.Exec.Task] = append(j.execByTask[ev.Exec.Task], i)
		case ev.Stage != nil:
			if ev.Stage.Task >= 0 {
				j.stageByTask[ev.Stage.Task] = append(j.stageByTask[ev.Stage.Task], i)
			}
			j.fileEvents[ev.Stage.File] = append(j.fileEvents[ev.Stage.File], i)
		case ev.Replicate != nil:
			j.fileEvents[ev.Replicate.File] = append(j.fileEvents[ev.Replicate.File], i)
		case ev.Evict != nil:
			j.fileEvents[ev.Evict.File] = append(j.fileEvents[ev.Evict.File], i)
		case ev.Fault != nil:
			if ev.Fault.Task >= 0 {
				j.faultByTask[ev.Fault.Task] = append(j.faultByTask[ev.Fault.Task], i)
			}
			if ev.Fault.File >= 0 {
				j.fileEvents[ev.Fault.File] = append(j.fileEvents[ev.Fault.File], i)
			}
		case ev.Spec != nil:
			j.specByTask[ev.Spec.Task] = append(j.specByTask[ev.Spec.Task], i)
		}
	}
	return j
}

// Tasks returns the sorted ids of every task the journal placed or
// executed.
func (j *Journal) Tasks() []int {
	set := map[int]bool{}
	for t := range j.placeByTask {
		set[t] = true
	}
	for t := range j.execByTask {
		set[t] = true
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Files returns the sorted ids of every file the journal mentions.
func (j *Journal) Files() []int {
	out := make([]int, 0, len(j.fileEvents))
	for f := range j.fileEvents {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// Placement is the full decision record of one task: every placement
// decision (re-queued tasks have several), the input transfers made on
// its behalf, its committed executions, and the faults that hit it.
type Placement struct {
	Task   int             `json:"task"`
	Places []journal.Event `json:"places"`
	Stages []journal.Event `json:"stages,omitempty"`
	Execs  []journal.Event `json:"execs,omitempty"`
	Faults []journal.Event `json:"faults,omitempty"`
	// Specs is the task's speculation record: launch, first-finisher
	// decision and loser cancellation, answering "why was this task
	// speculated (and did the twin pay off)?".
	Specs []journal.Event `json:"specs,omitempty"`
}

// Placement answers "why did task t run where it did?". Returns nil
// when the journal never mentions the task.
func (j *Journal) Placement(t int) *Placement {
	p := &Placement{
		Task:   t,
		Places: j.pick(j.placeByTask[t]),
		Stages: j.pick(j.stageByTask[t]),
		Execs:  j.pick(j.execByTask[t]),
		Faults: j.pick(j.faultByTask[t]),
		Specs:  j.pick(j.specByTask[t]),
	}
	if len(p.Places) == 0 && len(p.Execs) == 0 && len(p.Faults) == 0 && len(p.Specs) == 0 {
		return nil
	}
	return p
}

// FileHistory is every decision that touched one file: planned
// replications, committed transfers, evictions and transfer faults,
// optionally restricted to one destination node.
type FileHistory struct {
	File int `json:"file"`
	// Node restricts the history to one destination (-1 = all nodes).
	Node   int             `json:"node"`
	Events []journal.Event `json:"events"`
}

// FileHistory answers "why was file f replicated to / evicted from
// node n?" (n = -1 for all nodes). Returns nil when the journal never
// mentions the file.
func (j *Journal) FileHistory(f, node int) *FileHistory {
	idx := j.fileEvents[f]
	if len(idx) == 0 {
		return nil
	}
	h := &FileHistory{File: f, Node: node}
	for _, i := range idx {
		ev := j.Events[i]
		if node >= 0 && eventNode(ev) != node {
			continue
		}
		h.Events = append(h.Events, ev)
	}
	if len(h.Events) == 0 {
		return nil
	}
	return h
}

// eventNode is the destination/owner node of a file-touching event.
func eventNode(ev journal.Event) int {
	switch {
	case ev.Stage != nil:
		return ev.Stage.Dest
	case ev.Replicate != nil:
		return ev.Replicate.Dest
	case ev.Evict != nil:
		return ev.Evict.Node
	case ev.Fault != nil:
		return ev.Fault.Node
	}
	return -1
}

// PathStep is one link of the critical path: an event plus why it is
// bound to its predecessor.
type PathStep struct {
	Event journal.Event `json:"event"`
	// Why states the dependency on the previous (earlier) step, empty
	// for the chain's first step.
	Why string `json:"why,omitempty"`
}

// CriticalPath is the back-to-front dependency chain ending at the
// exec that finishes last.
type CriticalPath struct {
	Makespan float64 `json:"makespan"`
	// Steps are in chronological order; the last step ends at Makespan.
	Steps []PathStep `json:"steps"`
}

// CriticalPath answers "what bound this makespan?". Starting from the
// last-finishing execution it walks backwards: each step is bound
// either by an input transfer arriving just before it started or by
// the previous occupation of the same node. Returns nil for a journal
// with no executions.
func (j *Journal) CriticalPath() *CriticalPath {
	type span struct {
		idx        int
		start, end float64
		node       int
	}
	var execs, stages []span
	last := span{idx: -1}
	for i, ev := range j.Events {
		switch {
		case ev.Exec != nil:
			s := span{idx: i, start: ev.Exec.Start, end: ev.Exec.End, node: ev.Exec.Node}
			execs = append(execs, s)
			if s.end > last.end {
				last = s
			}
		case ev.Stage != nil:
			stages = append(stages, span{idx: i, start: ev.Stage.Start, end: ev.Stage.End, node: ev.Stage.Dest})
		}
	}
	if last.idx < 0 {
		return nil
	}
	cp := &CriticalPath{Makespan: last.end}
	cur := last
	why := ""
	for steps := 0; steps < len(execs)+len(stages)+1; steps++ {
		cp.Steps = append(cp.Steps, PathStep{Event: j.Events[cur.idx], Why: why})
		// The binding predecessor ends latest among events that must
		// precede cur: its input transfers (for an exec) and any earlier
		// occupation of the same resource.
		best := span{idx: -1, end: math.Inf(-1)}
		bestWhy := ""
		consider := func(s span, w string) {
			if s.idx == cur.idx || s.end > cur.start+timeEps {
				return
			}
			if s.end > best.end || (s.end == best.end && s.idx < best.idx) {
				best, bestWhy = s, w
			}
		}
		if ev := j.Events[cur.idx]; ev.Exec != nil {
			inputs := map[int]bool{}
			for _, f := range ev.Exec.Inputs {
				inputs[f] = true
			}
			for _, s := range stages {
				st := j.Events[s.idx].Stage
				if s.node == cur.node && inputs[st.File] {
					consider(s, fmt.Sprintf("task %d waited for input file %d", ev.Exec.Task, st.File))
				}
			}
		}
		for _, s := range execs {
			if s.node == cur.node {
				consider(s, fmt.Sprintf("node %d was busy executing task %d", cur.node, j.Events[s.idx].Exec.Task))
			}
		}
		for _, s := range stages {
			if s.node == cur.node {
				consider(s, fmt.Sprintf("node %d's port was busy receiving file %d", cur.node, j.Events[s.idx].Stage.File))
			}
		}
		// Only a predecessor that actually abuts cur binds it; a gap
		// means cur was released by its round's start, not by load.
		if best.idx < 0 || best.end < cur.start-timeEps {
			break
		}
		cur, why = best, bestWhy
	}
	// Walked back-to-front; present chronologically.
	for l, r := 0, len(cp.Steps)-1; l < r; l, r = l+1, r-1 {
		cp.Steps[l], cp.Steps[r] = cp.Steps[r], cp.Steps[l]
	}
	// Why describes the link to the previous step, so shift it forward.
	for i := len(cp.Steps) - 1; i > 0; i-- {
		cp.Steps[i].Why = cp.Steps[i-1].Why
	}
	if len(cp.Steps) > 0 {
		cp.Steps[0].Why = ""
	}
	return cp
}

// pick materializes an index list into events.
func (j *Journal) pick(idx []int) []journal.Event {
	if len(idx) == 0 {
		return nil
	}
	out := make([]journal.Event, len(idx))
	for i, k := range idx {
		out[i] = j.Events[k]
	}
	return out
}

// ---- text rendering ----

// Text renders the placement record for terminals.
func (p *Placement) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "task %d\n", p.Task)
	for _, ev := range p.Places {
		pl := ev.Place
		fmt.Fprintf(&b, "  placed on node %d at t=%.3f (round %d) by %s", pl.Node, ev.T, ev.Round, pl.Policy)
		if pl.Score != 0 {
			fmt.Fprintf(&b, ", score %.4g", pl.Score)
		}
		b.WriteString("\n")
		if pl.Reason != "" {
			fmt.Fprintf(&b, "    because: %s\n", pl.Reason)
		}
		for _, c := range pl.Candidates {
			marker := " "
			if c.Node == pl.Node {
				marker = "*"
			}
			fits := "fits"
			if !c.Fits {
				fits = "no fit"
			}
			fmt.Fprintf(&b, "    %s node %d: score %.4g (%s)\n", marker, c.Node, c.Score, fits)
		}
	}
	for _, ev := range p.Stages {
		st := ev.Stage
		fmt.Fprintf(&b, "  input file %d → node %d via %s from %s [%.3f, %.3f)%s\n",
			st.File, st.Dest, st.Kind, sourceDesc(st.Src, st.Home), st.Start, st.End, causeSuffix(st))
		for _, a := range st.Alternatives {
			marker := " "
			if a.Src == st.Src {
				marker = "*"
			}
			fmt.Fprintf(&b, "    %s source %s: expected completion %.4g\n", marker, sourceDesc(a.Src, st.Home), a.TCT)
		}
	}
	for _, ev := range p.Execs {
		ex := ev.Exec
		fmt.Fprintf(&b, "  executed on node %d [%.3f, %.3f)\n", ex.Node, ex.Start, ex.End)
	}
	for _, ev := range p.Faults {
		fmt.Fprintf(&b, "  fault at t=%.3f: %s\n", ev.T, faultDesc(ev.Fault, ev.T))
	}
	for _, ev := range p.Specs {
		sp := ev.Spec
		switch ev.Kind {
		case journal.KindSpecLaunch:
			fmt.Fprintf(&b, "  speculated at t=%.3f: twin forked on node %d (primary on node %d, policy %s, threshold %.3fs)\n",
				ev.T, sp.Twin, sp.Node, sp.Policy, sp.Threshold)
			if sp.Reason != "" {
				fmt.Fprintf(&b, "    because: %s\n", sp.Reason)
			}
			for _, c := range sp.Candidates {
				marker := " "
				if c.Node == sp.Twin {
					marker = "*"
				}
				fits := "fits"
				if !c.Fits {
					fits = "no fit"
				}
				fmt.Fprintf(&b, "    %s twin host %d: projected end %.4g (%s)\n", marker, c.Node, c.Score, fits)
			}
		case journal.KindSpecWin:
			fmt.Fprintf(&b, "  spec race decided at t=%.3f: %s wins (primary end %s, twin end %s)\n",
				ev.T, sp.Winner, specEnd(sp.PrimaryEnd), specEnd(sp.TwinEnd))
			if sp.Reason != "" {
				fmt.Fprintf(&b, "    because: %s\n", sp.Reason)
			}
		case journal.KindSpecCancel:
			fmt.Fprintf(&b, "  spec loser cancelled at t=%.3f: %s attempt cancelled, %.3fs of port time burnt\n",
				ev.T, specLoser(sp.Winner), sp.WastedS)
		}
	}
	return b.String()
}

// specEnd renders an attempt's projected finish (−1 = crash-killed).
func specEnd(t float64) string {
	if t < 0 {
		return "never (crashed)"
	}
	return fmt.Sprintf("%.3f", t)
}

// specLoser names the cancelled side given the race winner.
func specLoser(winner string) string {
	switch winner {
	case "primary":
		return "twin"
	case "twin":
		return "primary"
	}
	return "both"
}

// Text renders the file history for terminals.
func (h *FileHistory) Text() string {
	var b strings.Builder
	if h.Node >= 0 {
		fmt.Fprintf(&b, "file %d on node %d\n", h.File, h.Node)
	} else {
		fmt.Fprintf(&b, "file %d\n", h.File)
	}
	for _, ev := range h.Events {
		switch {
		case ev.Replicate != nil:
			r := ev.Replicate
			fmt.Fprintf(&b, "  t=%.3f replication planned → node %d from %s by %s", ev.T, r.Dest, sourceDesc(r.Src, -1), r.Policy)
			if r.Threshold > 0 {
				fmt.Fprintf(&b, " (popularity %d > threshold %d)", r.Popularity, r.Threshold)
			}
			b.WriteString("\n")
			if r.Reason != "" {
				fmt.Fprintf(&b, "    because: %s\n", r.Reason)
			}
		case ev.Stage != nil:
			st := ev.Stage
			fmt.Fprintf(&b, "  t=%.3f staged → node %d via %s from %s [%.3f, %.3f)%s\n",
				ev.T, st.Dest, st.Kind, sourceDesc(st.Src, st.Home), st.Start, st.End, causeSuffix(st))
		case ev.Evict != nil:
			e := ev.Evict
			fmt.Fprintf(&b, "  t=%.3f evicted from node %d by %s (score %.4g, %d bytes)\n",
				ev.T, e.Node, e.Policy, e.Score, e.Bytes)
		case ev.Fault != nil:
			fmt.Fprintf(&b, "  t=%.3f fault: %s\n", ev.T, faultDesc(ev.Fault, ev.T))
		}
	}
	return b.String()
}

// Text renders the critical path for terminals.
func (cp *CriticalPath) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.3f, critical path of %d step(s):\n", cp.Makespan, len(cp.Steps))
	for _, s := range cp.Steps {
		switch ev := s.Event; {
		case ev.Exec != nil:
			fmt.Fprintf(&b, "  [%.3f, %.3f) exec task %d on node %d\n", ev.Exec.Start, ev.Exec.End, ev.Exec.Task, ev.Exec.Node)
		case ev.Stage != nil:
			fmt.Fprintf(&b, "  [%.3f, %.3f) stage file %d → node %d (%s)\n",
				ev.Stage.Start, ev.Stage.End, ev.Stage.File, ev.Stage.Dest, ev.Stage.Kind)
		}
		if s.Why != "" {
			fmt.Fprintf(&b, "      ← %s\n", s.Why)
		}
	}
	return b.String()
}

func sourceDesc(src, home int) string {
	if src < 0 {
		if home >= 0 {
			return fmt.Sprintf("storage home %d", home)
		}
		return "storage home"
	}
	return fmt.Sprintf("replica on node %d", src)
}

func causeSuffix(st *journal.Stage) string {
	switch st.Cause {
	case "prestage":
		return " (pre-staged)"
	case "retry":
		return fmt.Sprintf(" (retry, attempt %d)", st.Attempt)
	case "spec":
		return " (for speculative twin)"
	}
	return ""
}

// faultDesc renders a fault event that happened at sim time t; burned
// port time shows as its window [Start, t).
func faultDesc(f *journal.Fault, t float64) string {
	var parts []string
	parts = append(parts, f.Class)
	if f.Node >= 0 {
		parts = append(parts, fmt.Sprintf("node %d", f.Node))
	}
	if f.Task >= 0 {
		parts = append(parts, fmt.Sprintf("task %d", f.Task))
	}
	if f.File >= 0 {
		parts = append(parts, fmt.Sprintf("file %d", f.File))
	}
	if f.Attempt > 0 {
		parts = append(parts, fmt.Sprintf("attempt %d", f.Attempt))
	}
	if f.Factor > 0 {
		parts = append(parts, fmt.Sprintf("factor %.2f", f.Factor))
	}
	if f.Class == journal.FaultBurn || f.Class == journal.FaultTransferFail {
		parts = append(parts, fmt.Sprintf("burned [%.3f, %.3f)", f.Start, t))
	}
	s := strings.Join(parts, ", ")
	if f.Detail != "" {
		s += " — " + f.Detail
	}
	return s
}
