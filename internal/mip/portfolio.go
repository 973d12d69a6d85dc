package mip

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simplex"
)

// This file implements the multi-start branch-and-bound portfolio: N
// concurrent depth-first dives over the same model, each with its own
// branching order, racing the same wall-clock budget. Workers share
// the incumbent *objective* through an atomic bound (so one worker's
// discovery immediately sharpens everyone's pruning) but keep their
// incumbent *vectors* private; the final merge scans workers in index
// order and takes the strictly best objective, so the reported
// solution does not depend on goroutine interleaving. Worker 0 runs
// the canonical most-fractional dive, which is all a one-worker solve
// runs, so the portfolio's incumbent is never worse than the
// one-worker incumbent under the same limits — the extra workers can
// only tighten it.

// sharedBound is a monotonically decreasing float64 shared across
// portfolio workers (the best incumbent objective found so far, in the
// internal minimization direction).
type sharedBound struct {
	bits atomic.Uint64
}

func newSharedBound() *sharedBound {
	b := &sharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *sharedBound) load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// update lowers the bound to v if v is smaller.
func (b *sharedBound) update(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// clone returns a worker-private copy of the LP. Only the bounds are
// deep-copied: branch and bound mutates Lower/Upper in place, while
// Cost, B and the column structure are read-only during the search (the
// simplex engine copies what it needs per solve).
func cloneLPBounds(lp *simplex.LP) *simplex.LP {
	c := *lp
	c.Lower = append([]float64(nil), lp.Lower...)
	c.Upper = append([]float64(nil), lp.Upper...)
	return &c
}

// Solve runs branch and bound as a portfolio of opt.Workers concurrent
// depth-first dives and merges their results deterministically.
func (m *Model) Solve(opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	lp0, err := m.toLP()
	if err != nil {
		return nil, err
	}
	tr := obs.OrNop(opt.Trace)
	start := time.Now() //schedlint:allow nowallclock,tracepurity anchors Options.TimeLimit, the documented wall-clock budget (DESIGN §7)
	var warm []float64
	warmObj := math.Inf(1)
	if opt.WarmStart != nil {
		if obj, ok := m.CheckFeasible(opt.WarmStart, 1e-6); ok {
			warm = opt.WarmStart
			warmObj = obj
			if m.maximize {
				warmObj = -warmObj
			}
		}
	}
	// Build every worker's state before launching any of them: worker 0
	// mutates lp0's bounds as soon as it starts, so all clones must be
	// taken first.
	shared := newSharedBound()
	searches := make([]*search, opt.Workers)
	for w := range searches {
		lp := lp0
		if w > 0 {
			lp = cloneLPBounds(lp0)
		}
		s := &search{m: m, lp: lp, opt: opt, start: start, bestObj: math.Inf(1), shared: shared, tr: tr, widx: w}
		if w > 0 {
			// Deterministic per-worker diversification: a fixed jitter
			// stream keyed by the worker index reorders the branching,
			// and odd workers dive away from the LP rounding first.
			rng := rand.New(rand.NewSource(int64(w)))
			s.jitter = make([]float64, len(m.obj))
			for j := range s.jitter {
				s.jitter[j] = rng.Float64()
			}
			s.flipDive = w%2 == 1
		}
		if warm != nil {
			s.setIncumbent(warm, warmObj)
		}
		searches[w] = s
	}
	var wg sync.WaitGroup
	for w, s := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.NameTrack(obs.DomainReal, obs.SolverTrack(w), "mip worker "+strconv.Itoa(w))
			end := tr.Span(obs.SolverTrack(w), "solver", "b&b dive",
				obs.A("worker", w), obs.A("vars", len(m.obj)))
			s.run()
			end(obs.A("nodes", s.nodes), obs.A("hit_limit", s.hitLimit))
		}()
	}
	wg.Wait()

	// Deterministic merge: best private objective wins, ties (within
	// the incumbent tolerance) go to the lowest worker index. Any
	// worker exhausting its tree proves optimality for the merged
	// incumbent, because every subtree it pruned was certified (against
	// a bound at least as large as the final one) to hold nothing
	// strictly better.
	merged := &search{
		m: m, opt: opt, start: start,
		bestObj:    math.Inf(1),
		rootBound:  searches[0].rootBound,
		rootSolved: searches[0].rootSolved,
		hitLimit:   true,
	}
	for _, s := range searches {
		merged.nodes += s.nodes
		if !s.hitLimit {
			merged.hitLimit = false
		}
		if s.bestObj < merged.bestObj-1e-12 {
			merged.bestObj = s.bestObj
			merged.bestX = s.bestX
		}
	}
	return merged.solution(), nil
}
