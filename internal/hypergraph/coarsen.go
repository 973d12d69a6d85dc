package hypergraph

import "slices"

// coarsenOnce performs one level of heavy-connectivity matching: each
// unmatched vertex pairs with the unmatched neighbour it shares the
// largest total net weight with (net weight scaled by 1/(size−1), the
// usual heavy-connectivity strength), and matched pairs collapse into
// coarse vertices. Nets are re-pinned onto coarse vertices; nets that
// collapse to a single pin are removed from the net list with their
// weight absorbed into the coarse vertex's ExtraVWeight (the paper's
// PaToH modification for BINW accounting); identical nets merge,
// summing weights.
//
// It returns the coarse hypergraph and the fine→coarse vertex map.
func coarsenOnce(sc *scratch, h *Hypergraph) (*Hypergraph, []int32) {
	match := make([]int32, h.NumV)
	for i := range match {
		match[i] = -1
	}
	strength := &sc.set
	strength.reset(h.NumV)
	for _, v := range sc.shuffled(h.NumV) {
		if match[v] >= 0 {
			continue
		}
		strength.clear()
		for _, n := range h.VertexNets(int(v)) {
			pins := h.NetPins(int(n))
			if len(pins) < 2 {
				continue
			}
			s := float64(h.NWeight[n]) / float64(len(pins)-1)
			for _, u := range pins {
				if u != v && match[u] < 0 {
					strength.add(u, s)
				}
			}
		}
		// Ties go to the smaller vertex id, a total order, so the match
		// does not depend on the candidates' listing order.
		best := int32(-1)
		bestS := 0.0
		for _, u := range strength.list {
			if s := strength.score[u]; s > bestS || (s == bestS && best >= 0 && u < best) {
				best, bestS = u, s
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v // singleton
		}
	}

	// Assign coarse ids.
	coarseOf := make([]int32, h.NumV)
	for i := range coarseOf {
		coarseOf[i] = -1
	}
	nc := 0
	for v := 0; v < h.NumV; v++ {
		if coarseOf[v] >= 0 {
			continue
		}
		coarseOf[v] = int32(nc)
		if m := match[v]; m != int32(v) && m >= 0 {
			coarseOf[m] = int32(nc)
		}
		nc++
	}

	cw := make([]int64, nc)
	cextra := make([]int64, nc)
	for v := 0; v < h.NumV; v++ {
		cw[coarseOf[v]] += h.VWeight[v]
		cextra[coarseOf[v]] += h.ExtraVWeight[v]
	}

	// Re-pin nets, dropping size-1 nets into extra weight and merging
	// duplicates.
	merged := make(map[string]int)
	var nw []int64
	xpins := []int32{0}
	var pins, pinsBuf []int32
	var key []byte
	for n := 0; n < h.NumN; n++ {
		pinsBuf = pinsBuf[:0]
		for _, v := range h.NetPins(n) {
			pinsBuf = append(pinsBuf, coarseOf[v])
		}
		slices.Sort(pinsBuf)
		uniq := slices.Compact(pinsBuf)
		if len(uniq) <= 1 {
			if len(uniq) == 1 {
				cextra[uniq[0]] += h.NWeight[n]
			}
			continue
		}
		key = key[:0]
		for _, c := range uniq {
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		if idx, ok := merged[string(key)]; ok {
			nw[idx] += h.NWeight[n]
			continue
		}
		merged[string(key)] = len(nw)
		nw = append(nw, h.NWeight[n])
		pins = append(pins, uniq...)
		xpins = append(xpins, int32(len(pins)))
	}
	return newCSR(cw, cextra, nw, xpins, pins), coarseOf
}

// coarsenTo repeatedly coarsens until the vertex count drops to at
// most target or progress stalls. It returns the level stack (finest
// first) and the fine→coarse maps between consecutive levels.
func coarsenTo(sc *scratch, h *Hypergraph, target int) (levels []*Hypergraph, maps [][]int32) {
	levels = []*Hypergraph{h}
	for levels[len(levels)-1].NumV > target {
		cur := levels[len(levels)-1]
		ch, m := coarsenOnce(sc, cur)
		if ch.NumV >= cur.NumV || float64(ch.NumV) > 0.95*float64(cur.NumV) {
			break
		}
		levels = append(levels, ch)
		maps = append(maps, m)
	}
	return levels, maps
}
