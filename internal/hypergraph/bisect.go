package hypergraph

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// balanceMode selects the quantity the bisection balances.
type balanceMode int

const (
	// balanceVertex balances the sum of vertex weights (standard K-way
	// partitioning: computational load balance).
	balanceVertex balanceMode = iota
	// balanceIncident balances the per-vertex incident net weight plus
	// absorbed size-1 weight (the BINW proxy: storage requirement).
	balanceIncident
)

// scratch is one goroutine's reusable working memory for the
// recursive partitioners: the bisection arrays and FM heap, the best
// side found so far, the balance weights, a shuffled vertex order, the
// dense vertex set behind GHG's frontier and coarsening's candidate
// table, extractSide's id map, and the RNG, reseeded at every
// recursion node. Each array is resized to the hypergraph at hand and
// fully rewritten before it is read, so nothing carries over from one
// bisection to the next. A recursion branch forked onto another
// goroutine gets its own scratch.
type scratch struct {
	rng   *rand.Rand
	bis   bisection
	best  []int
	bw    []int64
	order []int32
	set   vertexSet
	newID []int32
}

// seed resets the RNG to the stream rand.NewSource(s) starts: Seed
// resets the read position, and Shuffle never reads the cached bytes
// that Read keeps.
func (sc *scratch) seed(s int64) {
	if sc.rng == nil {
		sc.rng = rand.New(rand.NewSource(s))
		return
	}
	sc.rng.Seed(s)
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// shuffled returns 0..n−1 in the order rng.Shuffle leaves them.
func (sc *scratch) shuffled(n int) []int32 {
	order := resize(sc.order, n)
	for i := range order {
		order[i] = int32(i)
	}
	sc.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sc.order = order
	return order
}

// balanceWeights derives the per-vertex balance weights for a mode.
// Incident weights are written to sc.bw and stay valid until the next
// call.
func (sc *scratch) balanceWeights(h *Hypergraph, mode balanceMode) []int64 {
	if mode == balanceVertex {
		return h.VWeight
	}
	w := resize(sc.bw, h.NumV)
	for v := 0; v < h.NumV; v++ {
		s := h.ExtraVWeight[v]
		for _, n := range h.VertexNets(v) {
			s += h.NWeight[n]
		}
		w[v] = s
	}
	sc.bw = w
	return w
}

// vertexSet is a dense set of vertices, each with a float score: GHG's
// frontier and coarsening's candidate table. list holds the members;
// at[v] is v's index in list, or −1 when v is not a member.
type vertexSet struct {
	score []float64
	at    []int32
	list  []int32
}

// reset empties the set and sizes it for vertices 0..n−1.
func (s *vertexSet) reset(n int) {
	s.score = resize(s.score, n)
	s.at = resize(s.at, n)
	for v := range s.at {
		s.at[v] = -1
	}
	s.list = s.list[:0]
}

// add raises v's score by x, entering v with score 0 first if it is
// not a member.
func (s *vertexSet) add(v int32, x float64) {
	if s.at[v] < 0 {
		s.at[v] = int32(len(s.list))
		s.list = append(s.list, v)
		s.score[v] = 0
	}
	s.score[v] += x
}

// remove drops v if it is a member.
func (s *vertexSet) remove(v int32) {
	i := s.at[v]
	if i < 0 {
		return
	}
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.at[last] = i
	s.list = s.list[:len(s.list)-1]
	s.at[v] = -1
}

// clear drops every member.
func (s *vertexSet) clear() {
	for _, v := range s.list {
		s.at[v] = -1
	}
	s.list = s.list[:0]
}

// bisection holds working state for a 2-way partition of one level.
// Its arrays are reused from one reset to the next.
type bisection struct {
	h      *Hypergraph
	part   []int   // 0 or 1 per vertex
	bw     []int64 // balance weight per vertex
	pw     [2]int64
	cnt    [][2]int32 // per net: pins in part 0 / part 1
	cut    int64
	target [2]int64 // desired part weights
	maxW   [2]int64 // hard caps (target·(1+ε))

	// FM pass state.
	locked []bool
	moves  []int32
	heap   fmHeap
}

// reset points b at h with balance weights bw and recomputes the
// targets and caps. part and cnt are resized but not cleared: callers
// set part, then call setAll.
func (b *bisection) reset(h *Hypergraph, bw []int64, targetFrac, eps float64) {
	b.h, b.bw = h, bw
	var total int64
	for _, w := range bw {
		total += w
	}
	b.target[0] = int64(float64(total) * targetFrac)
	b.target[1] = total - b.target[0]
	b.maxW[0] = weightCap(b.target[0], eps)
	b.maxW[1] = weightCap(b.target[1], eps)
	b.part = resize(b.part, h.NumV)
	b.cnt = resize(b.cnt, h.NumN)
}

// weightCap is target·(1+eps), saturated at MaxInt64 when the product
// leaves int64's range: Go leaves that float-to-int conversion
// implementation-defined.
func weightCap(target int64, eps float64) int64 {
	c := float64(target) * (1 + eps)
	if c >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c)
}

// checkEps rejects a balance tolerance that is not a finite,
// non-negative number.
func checkEps(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return fmt.Errorf("hypergraph: Eps must be finite and non-negative, got %v", eps)
	}
	return nil
}

// setAll initializes counts and cut from the current b.part.
func (b *bisection) setAll() {
	b.pw = [2]int64{}
	for v := 0; v < b.h.NumV; v++ {
		b.pw[b.part[v]] += b.bw[v]
	}
	b.cut = 0
	for n := 0; n < b.h.NumN; n++ {
		c := [2]int32{}
		for _, v := range b.h.NetPins(n) {
			c[b.part[v]]++
		}
		b.cnt[n] = c
		if c[0] > 0 && c[1] > 0 {
			b.cut += b.h.NWeight[n]
		}
	}
}

// gain returns the cut reduction of moving v to the other side.
func (b *bisection) gain(v int) int64 {
	p := b.part[v]
	var g int64
	for _, n := range b.h.VertexNets(v) {
		c := b.cnt[n]
		if c[p] == 1 && c[1-p] > 0 {
			g += b.h.NWeight[n]
		} else if c[1-p] == 0 {
			g -= b.h.NWeight[n]
		}
	}
	return g
}

// move flips v to the other side, updating counts, weights and cut.
func (b *bisection) move(v int) {
	p := b.part[v]
	q := 1 - p
	for _, n := range b.h.VertexNets(v) {
		c := &b.cnt[n]
		wasCut := c[0] > 0 && c[1] > 0
		c[p]--
		c[q]++
		isCut := c[0] > 0 && c[1] > 0
		if wasCut && !isCut {
			b.cut -= b.h.NWeight[n]
		} else if !wasCut && isCut {
			b.cut += b.h.NWeight[n]
		}
	}
	b.pw[p] -= b.bw[v]
	b.pw[q] += b.bw[v]
	b.part[v] = q
}

// feasibleMove reports whether moving v keeps the destination under
// its cap.
func (b *bisection) feasibleMove(v int) bool {
	q := 1 - b.part[v]
	return b.pw[q]+b.bw[v] <= b.maxW[q]
}

// growInitial produces an initial bisection by greedy hypergraph
// growing from a random seed: part 0 grows by strongest connectivity
// until it reaches its target weight.
func (b *bisection) growInitial(sc *scratch) {
	h := b.h
	for v := range b.part {
		b.part[v] = 1
	}
	var w0 int64
	seedOrder := sc.shuffled(h.NumV)
	si := 0
	// Priority growth: repeatedly add the frontier vertex with the
	// highest connectivity to part 0, seeding with random vertices
	// when the frontier dries up. A vertex dropped from the frontier
	// re-enters with score 0.
	frontier := &sc.set
	frontier.reset(h.NumV)
	for w0 < b.target[0] {
		var pick int32 = -1
		bestG := -1.0
		// Ties go to the smaller vertex id: gain ties are common
		// (equal-weight nets), and the total order makes the pick
		// independent of the frontier's listing order.
		for _, u := range frontier.list {
			if g := frontier.score[u]; g > bestG || (g == bestG && (pick < 0 || u < pick)) {
				pick, bestG = u, g
			}
		}
		if pick < 0 {
			// Seed from the random order.
			for si < len(seedOrder) && b.part[seedOrder[si]] == 0 {
				si++
			}
			if si >= len(seedOrder) {
				break
			}
			pick = seedOrder[si]
		}
		if w0+b.bw[pick] > b.maxW[0] && w0 > 0 {
			frontier.remove(pick)
			if len(frontier.list) == 0 {
				break
			}
			continue
		}
		frontier.remove(pick)
		b.part[pick] = 0
		w0 += b.bw[pick]
		for _, n := range h.VertexNets(int(pick)) {
			pins := h.NetPins(int(n))
			s := float64(h.NWeight[n]) / float64(max(1, len(pins)-1))
			for _, u := range pins {
				if b.part[u] != 0 {
					frontier.add(u, s)
				}
			}
		}
	}
	b.setAll()
}

// fmEntry is a heap element with a cached gain.
type fmEntry struct {
	v    int32
	gain int64
}

// fmHeap is a binary max-heap on gain. push and pop follow
// container/heap's sift-up and sift-down step for step, so entries of
// equal gain pop in the order the generic heap would pop them.
type fmHeap []fmEntry

func (h *fmHeap) push(x fmEntry) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].gain > q[i].gain) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *fmHeap) pop() fmEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].gain > q[j].gain {
			j = j2 // right child
		}
		if !(q[j].gain > q[i].gain) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// refineFM runs Fiduccia-Mattheyses passes: each pass tentatively
// moves every vertex at most once in best-gain order (respecting the
// balance caps), tracks the best prefix, and rolls back past it.
// Passes repeat until a pass yields no improvement.
func (b *bisection) refineFM(maxPasses int) {
	n := b.h.NumV
	b.locked = resize(b.locked, n)
	locked := b.locked
	h := &b.heap
	for pass := 0; pass < maxPasses; pass++ {
		clear(locked)
		moves := b.moves[:0]
		*h = (*h)[:0]
		for v := 0; v < n; v++ {
			h.push(fmEntry{v: int32(v), gain: b.gain(v)})
		}
		startCut := b.cut
		bestCut := b.cut
		bestLen := 0
		for len(*h) > 0 {
			e := h.pop()
			if locked[e.v] {
				continue
			}
			g := b.gain(int(e.v))
			if g != e.gain {
				h.push(fmEntry{v: e.v, gain: g})
				continue
			}
			if !b.feasibleMove(int(e.v)) {
				// Cannot move now; it may become feasible later in the
				// pass, but for simplicity lock it out of this pass.
				locked[e.v] = true
				continue
			}
			b.move(int(e.v))
			locked[e.v] = true
			moves = append(moves, e.v)
			if b.cut < bestCut {
				bestCut = b.cut
				bestLen = len(moves)
			}
			// Neighbour gains changed; they will lazily re-validate on
			// pop. Push fresh entries for unlocked neighbours.
			for _, net := range b.h.VertexNets(int(e.v)) {
				for _, u := range b.h.NetPins(int(net)) {
					if !locked[u] {
						h.push(fmEntry{v: u, gain: b.gain(int(u))})
					}
				}
			}
		}
		b.moves = moves
		// Roll back past the best prefix.
		for i := len(moves) - 1; i >= bestLen; i-- {
			b.move(int(moves[i]))
		}
		if bestCut >= startCut {
			break
		}
	}
}

// multilevelBisect partitions h into two sides with part-0 balance
// target targetFrac (of total balance weight) and imbalance tolerance
// eps, minimizing cut net weight, drawing randomness from sc.rng.
// Multiple initial-partition trials keep the best result. The returned
// sides live in sc and stay valid until its next bisection.
func multilevelBisect(sc *scratch, h *Hypergraph, mode balanceMode, targetFrac, eps float64, tr *obs.Trace) []int {
	// Concurrent recursion branches each allocate their own track so
	// their passes do not interleave on one trace row. Observability
	// only: the partition never depends on the tracer.
	traceOn := tr.Enabled()
	tid := 0
	var endSpan obs.EndFunc
	if traceOn {
		tid = tr.AllocTrack(obs.DomainReal, "bisect")
		endSpan = tr.Span(tid, "partition", "multilevel bisect",
			obs.A("vertices", h.NumV), obs.A("nets", h.NumN))
	}
	const coarsenTarget = 80
	levels, maps := coarsenTo(sc, h, coarsenTarget)
	coarsest := levels[len(levels)-1]
	if traceOn {
		tr.Instant(tid, "partition", "coarsened",
			obs.A("levels", len(levels)), obs.A("coarse_vertices", coarsest.NumV))
	}

	// Initial partitioning on the coarsest level: several GHG trials,
	// keep the lowest feasible cut.
	b := &sc.bis
	bw := sc.balanceWeights(coarsest, mode)
	var bestCut int64 = -1
	trials := 6
	for trial := 0; trial < trials; trial++ {
		b.reset(coarsest, bw, targetFrac, eps)
		b.growInitial(sc)
		b.refineFM(4)
		if bestCut < 0 || b.cut < bestCut {
			bestCut = b.cut
			sc.best = append(sc.best[:0], b.part...)
		}
	}
	if traceOn {
		tr.Instant(tid, "partition", "initial partition",
			obs.A("trials", trials), obs.A("cut", bestCut))
	}

	// Uncoarsen with FM refinement at each level. After each level the
	// refined sides swap into sc.best and the coarser ones become the
	// next level's working array.
	finalCut := bestCut
	for lev := len(levels) - 2; lev >= 0; lev-- {
		fine := levels[lev]
		m := maps[lev]
		b.reset(fine, sc.balanceWeights(fine, mode), targetFrac, eps)
		for v := 0; v < fine.NumV; v++ {
			b.part[v] = sc.best[m[v]]
		}
		b.setAll()
		b.refineFM(3)
		sc.best, b.part = b.part, sc.best
		finalCut = b.cut
		if traceOn {
			tr.Instant(tid, "partition", "refine level",
				obs.A("level", lev), obs.A("vertices", fine.NumV), obs.A("cut", b.cut))
		}
	}
	if traceOn {
		endSpan(obs.A("cut", finalCut))
	}
	return sc.best
}
