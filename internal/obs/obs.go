// Package obs is the repository's observability layer: a tracer
// recording spans and instant events from every pipeline phase
// (exported as Chrome trace-event JSON viewable in Perfetto, or as an
// ASCII Gantt for terminal inspection), a counter/gauge/histogram
// metrics registry with deterministic merging, and the standard Go
// profiling hooks (-cpuprofile, -memprofile, -trace) shared by the
// CLIs. It is built exclusively on the standard library.
//
// Every sink is a pointer whose methods accept a nil receiver: a nil
// *Trace or *Metrics records nothing, so an integration point needs
// no stand-in value and no nil check. A span on a nil *Trace still
// measures its wall time — Trace.Span is how the run loop times its
// plan and evict phases, traced or not.
//
// Determinism contract: observation is strictly write-only — nothing
// in this package feeds information back into placement decisions, so
// an instrumented run produces the same schedule as an uninstrumented
// one (pinned by TestObservedRunIdenticalToPlain). Two clock domains
// are kept apart: DomainSim events are a projection of the decision
// journal (core.TraceJournal draws them from journal events, whose
// timestamps are simulated) and are a pure function of the schedule,
// while DomainReal spans read the wall clock — but only inside this
// package, which is the one place on the pipeline path where
// schedlint's tracepurity check permits it. Exports sort events into
// a canonical order, so a simulated-time trace for a fixed seed is
// byte-identical at any worker count.
package obs

import "time"

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

// EndFunc closes a span opened by Trace.Span and returns the span's
// elapsed wall time; extra args recorded at the end are merged into
// the span's args.
type EndFunc func(args ...Arg) time.Duration

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
