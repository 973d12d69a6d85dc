// Package hypergraph implements the multilevel hypergraph partitioner
// the BiPartition scheduler relies on — a from-scratch substitute for
// PaToH. It provides:
//
//   - a CSR hypergraph structure with vertex and net weights;
//   - K-way partitioning by recursive bisection, each bisection run
//     through the multilevel pipeline (heavy-connectivity coarsening,
//     greedy hypergraph growing initial partitioning, FM boundary
//     refinement) with net splitting between levels of the recursion
//     so the connectivity-1 metric is accounted exactly;
//   - Bounded Incident Net Weight (BINW) partitioning (§5.1 of the
//     paper, after Krishnamoorthy et al.): the number of parts is not
//     fixed; instead each part's incident net weight must stay under a
//     bound D, with size-1 net weights accumulated into per-vertex
//     exposed weights during coarsening exactly as the paper describes.
package hypergraph

import (
	"fmt"
	"sort"
)

// Hypergraph is a weighted hypergraph in CSR form.
type Hypergraph struct {
	// NumV and NumN are the vertex and net counts.
	NumV, NumN int
	// VWeight[v] is the vertex weight (task execution time, scaled).
	VWeight []int64
	// ExtraVWeight[v] accumulates the weights of size-1 nets absorbed
	// into v (the paper's modification of PaToH for BINW: size-1 nets
	// are discarded from the net list but their weight must still
	// count toward a part's incident net weight).
	ExtraVWeight []int64
	// NWeight[n] is the net weight (file size, scaled).
	NWeight []int64

	// Pins: for net n, Pins[XPins[n]:XPins[n+1]] are its vertices.
	XPins []int32
	Pins  []int32
	// VNets: for vertex v, VNets[XVNets[v]:XVNets[v+1]] are its nets.
	XVNets []int32
	VNets  []int32
}

// Builder incrementally constructs a hypergraph.
type Builder struct {
	vweights []int64
	nweights []int64
	nets     [][]int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// AddVertex appends a vertex with the given weight, returning its ID.
func (b *Builder) AddVertex(w int64) int {
	b.vweights = append(b.vweights, w)
	return len(b.vweights) - 1
}

// AddNet appends a net with the given weight connecting the vertices.
func (b *Builder) AddNet(w int64, pins []int) int {
	p := make([]int32, len(pins))
	for i, v := range pins {
		p[i] = int32(v)
	}
	b.nweights = append(b.nweights, w)
	b.nets = append(b.nets, p)
	return len(b.nweights) - 1
}

// Build finalizes the hypergraph.
func (b *Builder) Build() (*Hypergraph, error) {
	xpins := make([]int32, len(b.nets)+1)
	for n, pins := range b.nets {
		xpins[n+1] = xpins[n] + int32(len(pins))
	}
	pins := make([]int32, 0, xpins[len(b.nets)])
	for _, p := range b.nets {
		pins = append(pins, p...)
	}
	return FromCSR(append([]int64(nil), b.vweights...), append([]int64(nil), b.nweights...), xpins, pins)
}

// FromCSR builds a hypergraph from its net→pins CSR arrays: net n has
// weight nweight[n] and connects pins[xpins[n]:xpins[n+1]]. It takes
// ownership of the slices and rejects offsets that do not describe
// pins, unknown vertices and a vertex pinned twice by one net.
func FromCSR(vweight, nweight []int64, xpins, pins []int32) (*Hypergraph, error) {
	nv, nn := len(vweight), len(nweight)
	if len(xpins) != nn+1 || xpins[0] != 0 || int(xpins[nn]) != len(pins) {
		return nil, fmt.Errorf("hypergraph: %d net offsets do not describe %d nets over %d pins", len(xpins), nn, len(pins))
	}
	// stamp[v] = n+1 once net n has pinned v.
	stamp := make([]int32, nv)
	for n := 0; n < nn; n++ {
		if xpins[n+1] < xpins[n] || int(xpins[n+1]) > len(pins) {
			return nil, fmt.Errorf("hypergraph: net %d has pin offsets %d..%d", n, xpins[n], xpins[n+1])
		}
		for _, v := range pins[xpins[n]:xpins[n+1]] {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("hypergraph: net %d pins unknown vertex %d", n, v)
			}
			if stamp[v] == int32(n+1) {
				return nil, fmt.Errorf("hypergraph: net %d pins vertex %d twice", n, v)
			}
			stamp[v] = int32(n + 1)
		}
	}
	return newCSR(vweight, make([]int64, nv), nweight, xpins, pins), nil
}

// newCSR assembles a hypergraph from arrays the caller has already
// made consistent, deriving the vertex→nets CSR.
func newCSR(vweight, extra, nweight []int64, xpins, pins []int32) *Hypergraph {
	h := &Hypergraph{NumV: len(vweight), NumN: len(nweight), VWeight: vweight,
		ExtraVWeight: extra, NWeight: nweight, XPins: xpins, Pins: pins}
	h.buildVNets()
	return h
}

// buildVNets derives the vertex→nets CSR from the net→pins CSR. Each
// vertex lists its nets in ascending order.
func (h *Hypergraph) buildVNets() {
	x := make([]int32, h.NumV+1)
	for _, v := range h.Pins {
		x[v+1]++
	}
	for v := 0; v < h.NumV; v++ {
		x[v+1] += x[v]
	}
	// Fill with x[v] as v's cursor. Each cursor ends at the start of
	// v+1's range, so shifting them up one slot restores the offsets.
	h.VNets = make([]int32, len(h.Pins))
	for n := 0; n < h.NumN; n++ {
		for _, v := range h.NetPins(n) {
			h.VNets[x[v]] = int32(n)
			x[v]++
		}
	}
	copy(x[1:], x[:h.NumV])
	x[0] = 0
	h.XVNets = x
}

// NetPins returns net n's vertices.
func (h *Hypergraph) NetPins(n int) []int32 { return h.Pins[h.XPins[n]:h.XPins[n+1]] }

// VertexNets returns vertex v's incident nets.
func (h *Hypergraph) VertexNets(v int) []int32 { return h.VNets[h.XVNets[v]:h.XVNets[v+1]] }

// TotalVWeight sums vertex weights.
func (h *Hypergraph) TotalVWeight() int64 {
	var sum int64
	for _, w := range h.VWeight {
		sum += w
	}
	return sum
}

// ConnectivityCost computes the connectivity-1 metric χ(Π) = Σ_cut
// c_j(λ_j − 1) for a given part assignment (Eq. 23 of the paper).
func (h *Hypergraph) ConnectivityCost(part []int) int64 {
	var cost int64
	seen := make(map[int]bool)
	for n := 0; n < h.NumN; n++ {
		for k := range seen {
			delete(seen, k)
		}
		for _, v := range h.NetPins(n) {
			seen[part[v]] = true
		}
		if lambda := len(seen); lambda > 1 {
			cost += h.NWeight[n] * int64(lambda-1)
		}
	}
	return cost
}

// PartWeights sums vertex weights per part for a given assignment.
func PartWeights(h *Hypergraph, part []int, numParts int) []int64 {
	w := make([]int64, numParts)
	for v := 0; v < h.NumV; v++ {
		w[part[v]] += h.VWeight[v]
	}
	return w
}

// IncidentNetWeight computes, for each part, the sum of the weights of
// nets incident on any of its vertices, plus the absorbed size-1 net
// weights (the BINW constraint quantity, Eq. 24).
func (h *Hypergraph) IncidentNetWeight(part []int, numParts int) []int64 {
	w := make([]int64, numParts)
	counted := make(map[[2]int]bool)
	for n := 0; n < h.NumN; n++ {
		for _, v := range h.NetPins(n) {
			key := [2]int{n, part[v]}
			if !counted[key] {
				counted[key] = true
				w[part[v]] += h.NWeight[n]
			}
		}
	}
	for v := 0; v < h.NumV; v++ {
		w[part[v]] += h.ExtraVWeight[v]
	}
	return w
}

// sortedByWeightDesc returns vertex ids ordered by descending total
// weight (used by deterministic fallbacks).
func (h *Hypergraph) sortedByWeightDesc() []int32 {
	order := make([]int32, h.NumV)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		wi := h.VWeight[order[i]] + h.ExtraVWeight[order[i]]
		wj := h.VWeight[order[j]] + h.ExtraVWeight[order[j]]
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	return order
}
