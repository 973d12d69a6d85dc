package mip

import (
	"math"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/simplex"
)

// This file implements the multi-start branch-and-bound portfolio: N
// concurrent depth-first dives over the same model, each with its own
// branching order and the same node budget. The dives run in epochs of
// epochNodes nodes: at the end of each epoch a dive publishes its
// incumbent *objective* and waits until every other live dive has
// published too (or finished), then prunes the next epoch against the
// minimum of everything published so far. Incumbent *vectors* stay
// private; the final merge scans workers in index order and takes the
// strictly best objective. Because a dive only ever reads the bound at
// a barrier, where every dive has run the same number of nodes, the
// answer is a function of the model, NodeLimit and Workers alone, not
// of goroutine timing. Worker 0 runs the canonical most-fractional
// dive, which is all a one-worker solve runs, so the portfolio's
// incumbent is never worse than the one-worker incumbent under the
// same limits — the extra workers can only tighten it.

// epochNodes is the number of nodes each dive explores between two
// bound exchanges.
const epochNodes = 8

// exchange is the portfolio's epoch barrier. best is the minimum of
// every incumbent objective published so far (internal minimization
// direction); released is its value as of the last barrier release,
// the only value a dive reads.
type exchange struct {
	mu       sync.Mutex
	cond     sync.Cond
	live     int // dives not yet finished
	arrived  int // dives parked at the current barrier
	gen      int // barrier releases so far
	best     float64
	released float64
}

func newExchange(dives int) *exchange {
	e := &exchange{live: dives, best: math.Inf(1), released: math.Inf(1)}
	e.cond.L = &e.mu
	return e
}

// sync publishes a dive's incumbent objective at the end of an epoch,
// waits until every live dive has arrived or finished, and returns the
// minimum of all objectives published before the release.
func (e *exchange) sync(obj float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.best = math.Min(e.best, obj)
	e.arrived++
	if e.arrived == e.live {
		e.release()
		return e.released
	}
	for gen := e.gen; gen == e.gen; {
		e.cond.Wait()
	}
	return e.released
}

// leave publishes a finished dive's final objective and stops waiting
// for it at later barriers.
func (e *exchange) leave(obj float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.best = math.Min(e.best, obj)
	e.live--
	if e.arrived > 0 && e.arrived == e.live {
		e.release()
	}
}

func (e *exchange) release() {
	e.released = e.best
	e.arrived = 0
	e.gen++
	e.cond.Broadcast()
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
	// Every dive starts from the same root relaxation: solve it once.
	root, err := simplex.Solve(lp0)
	if err != nil {
		return nil, err
	}
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
	ex := newExchange(opt.Workers)
	searches := make([]*search, opt.Workers)
	for w := range searches {
		lp := lp0
		if w > 0 {
			lp = cloneLPBounds(lp0)
		}
		s := &search{m: m, lp: lp, opt: opt, bestObj: math.Inf(1), shared: math.Inf(1), ex: ex, root: root, widx: w}
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
			opt.Trace.NameTrack(obs.DomainReal, obs.SolverTrack(w), "mip worker "+strconv.Itoa(w))
			end := opt.Trace.Span(obs.SolverTrack(w), "solver", "b&b dive",
				obs.A("worker", w), obs.A("vars", len(m.obj)))
			s.run()
			ex.leave(s.bestObj)
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
		m: m, opt: opt,
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
