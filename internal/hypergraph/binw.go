package hypergraph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// BINWOptions tunes PartitionBINW.
type BINWOptions struct {
	// Eps is the per-bisection imbalance tolerance.
	Eps float64
	// Seed drives the randomized multilevel pipeline; per-branch RNG
	// streams split deterministically from it, so the partition is
	// independent of Workers.
	Seed int64
	// Workers bounds the goroutines used for the independent sub-
	// bisections (≤ 0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Trace, when non-nil, receives one span per multilevel bisection
	// (coarsen/initial/refine instants with cut values). Observability
	// only: the partition never depends on it.
	Trace *obs.Trace
}

// binwLeaf is one finished part of the recursion: the original vertex
// ids it holds plus its left/right descent path from the root. Part
// ids are assigned by sorting leaves on that path, which reproduces
// the sequential left-to-right numbering no matter how the concurrent
// recursion interleaved.
type binwLeaf struct {
	path string
	vids []int32
}

// PartitionBINW computes a Bounded Incident Net Weight partition
// (§5.1): the number of parts is not predetermined; instead every
// part's incident net weight — the summed weights of all nets touching
// any of its vertices, including absorbed size-1 net weights — must
// not exceed bound. Parts are produced by recursive bisection
// (balancing incident weight, minimizing cut) until each side fits;
// minimizing the connectivity-1 cost simultaneously keeps the part
// count low, as the paper notes.
//
// A single vertex whose own incident weight exceeds bound is returned
// as a singleton part (the caller's problem guarantees — one task's
// files fit on the cluster — make this a can't-happen guard rather
// than a supported case).
//
// The result maps each vertex to a part id in 0..numParts−1, ordered
// so that part ids are dense.
func PartitionBINW(h *Hypergraph, bound int64, opt BINWOptions) ([]int, int, error) {
	if bound <= 0 {
		return nil, 0, fmt.Errorf("hypergraph: BINW bound must be positive, got %d", bound)
	}
	if err := checkEps(opt.Eps); err != nil {
		return nil, 0, err
	}
	part := make([]int, h.NumV)
	if h.NumV == 0 {
		return part, 0, nil
	}
	vid := make([]int32, h.NumV)
	for i := range vid {
		vid[i] = int32(i)
	}
	c := &binwCollector{}
	pool := newWorkPool(opt.Workers)
	recurseBINW(new(scratch), h, vid, bound, opt.Eps, opt.Seed, "", pool, c, opt.Trace)
	sort.Slice(c.leaves, func(i, j int) bool { return c.leaves[i].path < c.leaves[j].path })
	for id, leaf := range c.leaves {
		for _, v := range leaf.vids {
			part[v] = id
		}
	}
	return part, len(c.leaves), nil
}

// binwCollector accumulates leaves from concurrent recursion branches.
type binwCollector struct {
	mu     sync.Mutex
	leaves []binwLeaf
}

func (c *binwCollector) add(path string, vids []int32) {
	c.mu.Lock()
	c.leaves = append(c.leaves, binwLeaf{path: path, vids: vids})
	c.mu.Unlock()
}

// incidentTotal computes the incident net weight of the whole
// hypergraph treated as one part.
func incidentTotal(h *Hypergraph) int64 {
	var sum int64
	for n := 0; n < h.NumN; n++ {
		sum += h.NWeight[n]
	}
	for v := 0; v < h.NumV; v++ {
		sum += h.ExtraVWeight[v]
	}
	return sum
}

func recurseBINW(sc *scratch, h *Hypergraph, vid []int32, bound int64, eps float64, seed int64, path string, pool *workPool, c *binwCollector, tr *obs.Trace) {
	if incidentTotal(h) <= bound || h.NumV == 1 {
		c.add(path, vid)
		return
	}
	sc.seed(splitSeed(seed, 2))
	side := multilevelBisect(sc, h, balanceIncident, 0.5, eps, tr)
	// Guard against a degenerate bisection leaving one side empty,
	// which would recurse forever: peel off the heaviest vertex.
	n0 := 0
	for _, s := range side {
		if s == 0 {
			n0++
		}
	}
	if n0 == 0 || n0 == h.NumV {
		heaviest := h.sortedByWeightDesc()[0]
		for v := range side {
			side[v] = 1
		}
		side[heaviest] = 0
	}
	h0, vid0 := extractSide(sc, h, vid, side, 0)
	h1, vid1 := extractSide(sc, h, vid, side, 1)
	pool.fork(sc,
		func(sc *scratch) { recurseBINW(sc, h0, vid0, bound, eps, splitSeed(seed, 0), path+"0", pool, c, tr) },
		func(sc *scratch) { recurseBINW(sc, h1, vid1, bound, eps, splitSeed(seed, 1), path+"1", pool, c, tr) },
	)
}
