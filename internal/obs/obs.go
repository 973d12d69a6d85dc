// Package obs is the repository's observability layer: a tracer
// recording spans and instant events from every pipeline phase
// (exported as Chrome trace-event JSON viewable in Perfetto, or as an
// ASCII Gantt for terminal inspection), a counter/gauge/histogram
// metrics registry with deterministic merging, and the standard Go
// profiling hooks (-cpuprofile, -memprofile, -trace) shared by the
// CLIs. It is built exclusively on the standard library.
//
// Determinism contract: observation is strictly write-only — nothing
// in this package feeds information back into placement decisions, so
// an instrumented run produces the same schedule as an uninstrumented
// one (pinned by TestObservedRunsMatchUnobserved). Two clock domains
// are kept apart: DomainSim events are a projection of the decision
// journal (core.TraceJournal draws them from journal events, whose
// timestamps are simulated) and are a pure function of the schedule,
// while DomainReal spans read the wall clock — but only inside this
// package, which is the one place in the repository (outside the
// annotated overhead-metric sites) where schedlint's tracepurity check
// permits it. Exports sort events into a canonical order, so a simulated-time
// trace for a fixed seed is byte-identical at any worker count.
package obs

// Domain is a clock domain. Each domain becomes one "process" row
// group in the exported Chrome trace.
type Domain uint8

const (
	// DomainReal is real wall-clock time: scheduler phase latencies,
	// solver dives, partitioner passes. Machine-dependent.
	DomainReal Domain = 1
	// DomainSim is simulated batch time: transfer and task
	// reservations on the §6 Gantt charts. Deterministic for a seed.
	DomainSim Domain = 2
)

// Arg is one key/value annotation on an event. Values must be
// JSON-encodable scalars (string, bool, int kinds, float64).
type Arg struct {
	Key string
	Val any
}

// A builds an Arg.
func A(key string, val any) Arg { return Arg{Key: key, Val: val} }

// EndFunc closes a span opened by Tracer.Span; extra args recorded at
// the end are merged into the span's args.
type EndFunc func(args ...Arg)

// Tracer is the recording interface threaded through the pipeline.
// The zero value of every integration point is the no-op tracer, so
// uninstrumented runs pay only a nil-interface check. Implementations
// must be safe for concurrent use: solver portfolio workers and
// experiment cells record from many goroutines.
type Tracer interface {
	// Enabled reports whether events are recorded at all; callers use
	// it to skip argument construction on hot paths.
	Enabled() bool
	// Span opens a wall-clock (DomainReal) span on track tid. End it
	// by calling the returned func.
	Span(tid int, cat, name string, args ...Arg) EndFunc
	// Instant records a zero-duration wall-clock event on track tid.
	Instant(tid int, cat, name string, args ...Arg)
	// SimSpan records a completed simulated-time interval
	// [start, end), in simulated seconds, on track tid. The pipeline's
	// only producer is core.TraceJournal, which projects the journal.
	SimSpan(tid int, cat, name string, start, end float64, args ...Arg)
	// SimInstant marks a point in simulated time on track tid; like
	// SimSpan, only core.TraceJournal calls it in the pipeline.
	SimInstant(tid int, cat, name string, ts float64, args ...Arg)
	// NameTrack labels track tid of domain d in exported traces.
	// Renaming an already-named track is a no-op.
	NameTrack(d Domain, tid int, name string)
	// AllocTrack reserves a fresh track id in domain d and names it.
	// Concurrent recursion branches (e.g. the hypergraph bisections)
	// use it so their spans land on separate tracks.
	AllocTrack(d Domain, name string) int
}

// Track-id conventions shared across the pipeline, so every package
// lands its events on the same rows.
const (
	// TrackSched (DomainReal) is the scheduler's planning thread:
	// plan/execute/evict phases, sub-batch selection, IP solves.
	TrackSched = 1
	// TrackBatch (DomainSim) carries one span per executed sub-batch.
	TrackBatch = 1
	// TrackLink (DomainSim) is the shared inter-cluster link port.
	TrackLink = 2
)

// SolverTrack returns the DomainReal track of portfolio worker w.
func SolverTrack(w int) int { return 10 + w }

// ComputeTrack returns the DomainSim track of compute node n's port.
func ComputeTrack(n int) int { return 10 + n }

// StorageTrack returns the DomainSim track of storage node s's port.
func StorageTrack(s int) int { return 1000 + s }

// nopEnd is the shared no-op span closer.
var nopEnd EndFunc = func(...Arg) {}

// nop is the disabled tracer.
type nop struct{}

func (nop) Enabled() bool                                         { return false }
func (nop) Span(int, string, string, ...Arg) EndFunc              { return nopEnd }
func (nop) Instant(int, string, string, ...Arg)                   {}
func (nop) SimSpan(int, string, string, float64, float64, ...Arg) {}
func (nop) SimInstant(int, string, string, float64, ...Arg)       {}
func (nop) NameTrack(Domain, int, string)                         {}
func (nop) AllocTrack(Domain, string) int                         { return 0 }

// Nop is the tracer that records nothing.
var Nop Tracer = nop{}

// OrNop normalizes an optional tracer: nil becomes Nop, so call sites
// never nil-check the interface.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}
