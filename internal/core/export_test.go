package core

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/batch"
	"repro/internal/obs/journal"
)

// ReuseChecks counts the reused source searches CheckProbeReuse
// re-verified, by kind.
type ReuseChecks struct {
	PassThroughs int // greedy winners staged from their probe's slot
	MemoHits     int // first-round probes answered by the commit-epoch memo
}

// CheckProbeReuse runs fn with every executor source-search reuse
// re-verified: each reused (src, start, tct) is compared bit for bit
// against a fresh bestSource over the same view, and in journaled
// commit mode the alternatives lists must match too. It returns the
// checks made and one line per mismatch. Not safe to call from
// parallel tests.
func CheckProbeReuse(fn func()) (ReuseChecks, []string) {
	var n ReuseChecks
	var bad []string
	probeReuseCheck = func(f batch.FileID, dst int, memoHit bool, reused, fresh srcChoice, reusedAlts, freshAlts []journal.SourceAlt) {
		if memoHit {
			n.MemoHits++
		} else {
			n.PassThroughs++
		}
		if reused.src != fresh.src ||
			math.Float64bits(reused.start) != math.Float64bits(fresh.start) ||
			math.Float64bits(reused.tct) != math.Float64bits(fresh.tct) {
			bad = append(bad, fmt.Sprintf("file %d -> node %d (memo %v): reused %+v, fresh %+v", f, dst, memoHit, reused, fresh))
		}
		if !reflect.DeepEqual(reusedAlts, freshAlts) {
			bad = append(bad, fmt.Sprintf("file %d -> node %d: reused alternatives %v, fresh %v", f, dst, reusedAlts, freshAlts))
		}
	}
	defer func() { probeReuseCheck = nil }()
	fn()
	return n, bad
}

// CheckLazyStaging runs fn with every non-pinned greedy round of the
// staging loop re-verified: a fresh bestSource over every remaining
// file, reduced by the literal strict-< loop, must pick the same
// position and the same (src, start, tct) bits as the lower-bound
// loop. It returns the number of rounds checked and one line per
// mismatch. Not safe to call from parallel tests.
func CheckLazyStaging(fn func()) (int, []string) {
	var rounds int
	var bad []string
	stagingCheck = func(dst, pos int, got srcChoice, refPos int, ref srcChoice) {
		rounds++
		if pos != refPos || got.src != ref.src ||
			math.Float64bits(got.start) != math.Float64bits(ref.start) ||
			math.Float64bits(got.tct) != math.Float64bits(ref.tct) {
			bad = append(bad, fmt.Sprintf("node %d: lazy pick %d %+v, full re-price %d %+v", dst, pos, got, refPos, ref))
		}
	}
	defer func() { stagingCheck = nil }()
	fn()
	return rounds, bad
}

// Booking is one busy interval reserved before a sub-batch runs: on
// storage node Node when Storage is set, else on compute node Node.
type Booking struct {
	Storage    bool
	Node       int
	Start, Dur float64
}

// ExecuteBooked runs one sub-batch plan through the fault-free §6
// runtime stage on st, with the given intervals reserved on the
// sub-batch's fresh timelines first.
func ExecuteBooked(st *State, plan *SubPlan, bookings []Booking) (*ExecStats, error) {
	e, err := newExecutor(st, plan, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	for _, b := range bookings {
		tl := e.computeTL[b.Node]
		if b.Storage {
			tl = e.storageTL[b.Node]
		}
		tl.Reserve(b.Start, b.Dur)
	}
	return e.run()
}

// IndexTables exposes one executor's commit-epoch memo and its cached
// tentative env's copy table, so tests can drive both stamps to their
// wrap.
type IndexTables struct{ e *executor }

// NewIndexTables returns the tables of a fresh executor over plan.
func NewIndexTables(st *State, plan *SubPlan) (*IndexTables, error) {
	e, err := newExecutor(st, plan, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	e.tentativeEnv()
	return &IndexTables{e}, nil
}

// Memoize memoizes a probe of f onto dst, with transfer completion
// time tct, in the current epoch.
func (x *IndexTables) Memoize(f batch.FileID, dst int, tct float64) {
	x.e.memoPut(f, dst, srcChoice{src: -1, tct: tct})
}

// Memoized returns the current epoch's memoized TCT of f onto dst.
func (x *IndexTables) Memoized(f batch.FileID, dst int) (float64, bool) {
	c, ok := x.e.memoGet(f, dst)
	return c.tct, ok
}

// BumpEpoch starts a new commit epoch, as every commit does.
func (x *IndexTables) BumpEpoch() { x.e.bumpEpoch() }

// SetEpoch sets the commit-epoch counter.
func (x *IndexTables) SetEpoch(ep uint32) { x.e.epoch = ep }

// AddTentative schedules a tentative copy of f onto n, available at at.
func (x *IndexTables) AddTentative(f batch.FileID, n int, at float64) {
	x.e.tentEnv.setAvail(n, f, at)
}

// Tentative returns the tentative copies of f as (node, availability)
// pairs in node order.
func (x *IndexTables) Tentative(f batch.FileID) [][2]float64 {
	var out [][2]float64
	for _, c := range x.e.tentEnv.tentHolders(f) {
		out = append(out, [2]float64{float64(c.node), c.at})
	}
	return out
}

// ResetTentative clears the tentative env for a fresh pass, as every
// probe does.
func (x *IndexTables) ResetTentative() { x.e.tentativeEnv() }

// SetGeneration sets the tentative env's generation counter.
func (x *IndexTables) SetGeneration(g uint32) { x.e.tentEnv.gen = g }
