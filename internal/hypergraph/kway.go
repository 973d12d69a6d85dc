package hypergraph

import (
	"fmt"

	"repro/internal/obs"
)

// KWayOptions tunes PartitionKWay.
type KWayOptions struct {
	// Eps is the balance tolerance.
	Eps float64
	// Seed drives the randomized multilevel pipeline. The result is a
	// pure function of (h, k, options): per-branch RNG streams are
	// split deterministically from this seed, so Workers does not
	// affect the partition.
	Seed int64
	// Workers bounds the goroutines used for the independent left and
	// right sub-bisections of the recursion (≤ 0 = GOMAXPROCS, 1 =
	// sequential).
	Workers int
	// Trace, when non-nil, receives one span per multilevel bisection
	// (coarsen/initial/refine instants with cut values). Observability
	// only: the partition never depends on it.
	Trace *obs.Trace
}

// PartitionKWay divides h into k parts minimizing the connectivity-1
// cost while keeping each part's vertex weight within (1+opt.Eps) of
// the proportional target, via recursive bisection with net splitting.
// The returned slice maps each vertex to its part (0..k−1).
func PartitionKWay(h *Hypergraph, k int, opt KWayOptions) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hypergraph: k must be positive, got %d", k)
	}
	if err := checkEps(opt.Eps); err != nil {
		return nil, err
	}
	part := make([]int, h.NumV)
	if k == 1 || h.NumV == 0 {
		return part, nil
	}
	vid := make([]int32, h.NumV)
	for i := range vid {
		vid[i] = int32(i)
	}
	pool := newWorkPool(opt.Workers)
	recurseKWay(new(scratch), h, vid, k, 0, opt.Eps, opt.Seed, pool, part, opt.Trace)
	return part, nil
}

// recurseKWay bisects h (whose vertices map to original ids via vid)
// into ⌈k/2⌉ and ⌊k/2⌋ shares and recurses, writing final part labels
// starting at base into out. The two sub-recursions touch disjoint
// vertex sets (hence disjoint out entries) and run concurrently when
// the pool has a free worker. sc is the calling goroutine's scratch.
func recurseKWay(sc *scratch, h *Hypergraph, vid []int32, k, base int, eps float64, seed int64, pool *workPool, out []int, tr *obs.Trace) {
	if k == 1 {
		for _, v := range vid {
			out[v] = base
		}
		return
	}
	if h.NumV <= 1 {
		// Degenerate: too few vertices to split; everything lands in
		// the first child part.
		for _, v := range vid {
			out[v] = base
		}
		return
	}
	k0 := (k + 1) / 2
	k1 := k - k0
	frac := float64(k0) / float64(k)
	// Tighten the tolerance as we descend so the end-to-end imbalance
	// stays near eps.
	levelEps := eps
	if k > 2 {
		levelEps = eps / 1.5
	}
	sc.seed(splitSeed(seed, 2))
	side := multilevelBisect(sc, h, balanceVertex, frac, levelEps, tr)
	h0, vid0 := extractSide(sc, h, vid, side, 0)
	h1, vid1 := extractSide(sc, h, vid, side, 1)
	pool.fork(sc,
		func(sc *scratch) {
			recurseKWay(sc, h0, vid0, k0, base, eps, splitSeed(seed, 0), pool, out, tr)
		},
		func(sc *scratch) {
			recurseKWay(sc, h1, vid1, k1, base+k0, eps, splitSeed(seed, 1), pool, out, tr)
		},
	)
}

// extractSide builds the sub-hypergraph induced by vertices on the
// given side, splitting nets: each net keeps its weight on any side
// where it has at least two pins; single-pin appearances are absorbed
// into the vertex's ExtraVWeight (preserving the BINW incident-weight
// accounting and the connectivity-1 total across the recursion). Nets
// and their pins keep h's order.
func extractSide(sc *scratch, h *Hypergraph, vid []int32, side []int, want int) (*Hypergraph, []int32) {
	newID := resize(sc.newID, h.NumV)
	sc.newID = newID
	nv := 0
	for v := 0; v < h.NumV; v++ {
		newID[v] = -1
		if side[v] == want {
			newID[v] = int32(nv)
			nv++
		}
	}
	vw := make([]int64, nv)
	extra := make([]int64, nv)
	subVid := make([]int32, nv)
	for v, id := range newID {
		if id >= 0 {
			vw[id], extra[id], subVid[id] = h.VWeight[v], h.ExtraVWeight[v], vid[v]
		}
	}
	// First pass: size the kept nets and absorb single-pin appearances.
	nn, np := 0, 0
	for n := 0; n < h.NumN; n++ {
		c, last := 0, int32(-1)
		for _, v := range h.NetPins(n) {
			if id := newID[v]; id >= 0 {
				c, last = c+1, id
			}
		}
		switch {
		case c >= 2:
			nn, np = nn+1, np+c
		case c == 1:
			extra[last] += h.NWeight[n]
		}
	}
	// Second pass: copy the kept nets. A single-pin net is appended and
	// then cut back, so one slot past np is all the slack pins needs.
	nw := make([]int64, 0, nn)
	xpins := make([]int32, 1, nn+1)
	pins := make([]int32, 0, np+1)
	for n := 0; n < h.NumN; n++ {
		start := len(pins)
		for _, v := range h.NetPins(n) {
			if id := newID[v]; id >= 0 {
				pins = append(pins, id)
			}
		}
		if len(pins)-start < 2 {
			pins = pins[:start]
			continue
		}
		nw = append(nw, h.NWeight[n])
		xpins = append(xpins, int32(len(pins)))
	}
	return newCSR(vw, extra, nw, xpins, pins), subVid
}
