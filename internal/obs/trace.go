package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// event is one recorded trace event, timestamps in microseconds
// relative to the trace's own zero (wall-clock anchor for DomainReal,
// simulated batch start for DomainSim).
type event struct {
	domain Domain
	tid    int
	phase  byte // 'X' complete, 'i' instant
	cat    string
	name   string
	ts     float64 // µs
	dur    float64 // µs, complete events only
	args   []Arg
	seq    uint64 // recording order, tie-breaker for stable export
}

// Trace collects the spans and instants of a run. All methods are
// safe for concurrent use — solver portfolio workers and experiment
// cells record from many goroutines — and accept a nil receiver,
// which records nothing. A non-nil Trace must come from New or
// NewSimOnly.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	events  []event
	names   map[Domain]map[int]string
	nextID  int
	seq     uint64
	simOnly bool
}

// New returns a Trace recording both clock domains.
func New() *Trace {
	return &Trace{start: time.Now(), names: map[Domain]map[int]string{}, nextID: 1 << 20}
}

// NewSimOnly returns a Trace that silently drops DomainReal events and
// keeps only simulated-time ones. Because simulated timestamps are a
// pure function of the schedule, its export is byte-identical across
// machines and worker counts — this is what the golden-file tests use.
func NewSimOnly() *Trace {
	t := New()
	t.simOnly = true
	return t
}

// Enabled reports whether t records events at all (t is non-nil);
// callers use it to skip argument construction on hot paths.
func (t *Trace) Enabled() bool { return t != nil }

// us converts a duration to the export's microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *Trace) record(ev event) {
	t.mu.Lock()
	ev.seq = t.seq
	t.seq++
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span opens a wall-clock (DomainReal) span on track tid. Calling the
// returned func ends it and returns its elapsed wall time. The span is
// timed even when t is nil or simulated-only; it is recorded only when
// t keeps DomainReal events.
func (t *Trace) Span(tid int, cat, name string, args ...Arg) EndFunc {
	begin := time.Now()
	return func(end ...Arg) time.Duration {
		d := time.Since(begin)
		if t != nil && !t.simOnly {
			all := make([]Arg, 0, len(args)+len(end))
			all = append(all, args...)
			all = append(all, end...)
			t.record(event{domain: DomainReal, tid: tid, phase: 'X', cat: cat, name: name,
				ts: us(begin.Sub(t.start)), dur: us(d), args: all})
		}
		return d
	}
}

// Instant records a zero-duration wall-clock event on track tid.
func (t *Trace) Instant(tid int, cat, name string, args ...Arg) {
	if t == nil || t.simOnly {
		return
	}
	t.record(event{domain: DomainReal, tid: tid, phase: 'i', cat: cat, name: name,
		ts: us(time.Since(t.start)), args: args})
}

// SimSpan records a completed simulated-time interval [start, end), in
// simulated seconds, on track tid. The pipeline's only producer is
// core.TraceJournal, which projects the journal.
func (t *Trace) SimSpan(tid int, cat, name string, start, end float64, args ...Arg) {
	if t == nil {
		return
	}
	t.record(event{domain: DomainSim, tid: tid, phase: 'X', cat: cat, name: name,
		ts: start * 1e6, dur: (end - start) * 1e6, args: args})
}

// SimInstant marks a point in simulated time on track tid; like
// SimSpan, only core.TraceJournal calls it in the pipeline.
func (t *Trace) SimInstant(tid int, cat, name string, ts float64, args ...Arg) {
	if t == nil {
		return
	}
	t.record(event{domain: DomainSim, tid: tid, phase: 'i', cat: cat, name: name,
		ts: ts * 1e6, args: args})
}

// NameTrack labels track tid of domain d in exported traces. Renaming
// an already-named track is a no-op.
func (t *Trace) NameTrack(d Domain, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.names[d]
	if m == nil {
		m = map[int]string{}
		t.names[d] = m
	}
	if _, ok := m[tid]; !ok {
		m[tid] = name
	}
}

// AllocTrack reserves a fresh track id in domain d and names it;
// concurrent recursion branches (the hypergraph bisections) use it so
// their spans land on separate tracks. A nil t returns 0.
func (t *Trace) AllocTrack(d Domain, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	m := t.names[d]
	if m == nil {
		m = map[int]string{}
		t.names[d] = m
	}
	m[id] = name
	t.mu.Unlock()
	return id
}

// chromeEvent is the trace-event JSON wire format (the subset Perfetto
// and chrome://tracing consume). Fields follow the Trace Event Format
// spec: ph "X" complete events with ts+dur, ph "i" instants, ph "M"
// metadata naming processes and threads; ts/dur in microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

var domainNames = map[Domain]string{
	DomainReal: "real time (scheduler)",
	DomainSim:  "simulated time (runtime stage)",
}

// WriteChrome exports the trace as Chrome trace-event JSON. Events are
// sorted into a canonical order (domain, track, timestamp, duration,
// name, recording sequence) and args maps are serialized with sorted
// keys by encoding/json, so for simulated-only traces the output bytes
// depend solely on the recorded schedule.
func (t *Trace) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	events := make([]event, len(t.events))
	copy(events, t.events)
	names := make(map[Domain]map[int]string, len(t.names))
	for d, m := range t.names {
		nm := make(map[int]string, len(m))
		for k, v := range m {
			nm[k] = v
		}
		names[d] = nm
	}
	t.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.domain != b.domain {
			return a.domain < b.domain
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.dur != b.dur {
			return a.dur < b.dur
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.seq < b.seq
	})

	out := chromeTrace{DisplayTimeUnit: "ms"}
	for _, d := range []Domain{DomainReal, DomainSim} {
		if !t.domainUsed(events, names, d) {
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: int(d),
			Args: map[string]any{"name": domainNames[d]},
		})
		tids := make([]int, 0, len(names[d]))
		for tid := range names[d] {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: int(d), TID: tid,
				Args: map[string]any{"name": names[d][tid]},
			})
		}
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name, Cat: ev.cat, TS: ev.ts,
			PID: int(ev.domain), TID: ev.tid,
		}
		switch ev.phase {
		case 'X':
			ce.Phase = "X"
			dur := ev.dur
			ce.Dur = &dur
		case 'i':
			ce.Phase = "i"
			ce.Scope = "t" // thread-scoped instant
		}
		if len(ev.args) > 0 {
			ce.Args = make(map[string]any, len(ev.args))
			for _, a := range ev.args {
				ce.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

func (t *Trace) domainUsed(events []event, names map[Domain]map[int]string, d Domain) bool {
	if len(names[d]) > 0 {
		return true
	}
	for _, ev := range events {
		if ev.domain == d {
			return true
		}
	}
	return false
}
