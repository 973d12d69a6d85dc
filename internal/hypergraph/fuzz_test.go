package hypergraph

import (
	"bytes"
	"testing"
)

// buildFuzzHypergraph decodes an arbitrary byte string into a small
// unit-weight hypergraph plus partitioning parameters. The first three
// bytes pick the vertex count, k, and seed; every following byte pair
// becomes a 2-pin net (self-loops are skipped). Any input yields a
// structurally valid hypergraph, so Build never fails.
func buildFuzzHypergraph(data []byte) (h *Hypergraph, k int, seed int64) {
	if len(data) < 3 {
		return nil, 0, 0
	}
	numV := 2 + int(data[0]%32)
	k = 2 + int(data[1]%4)
	seed = int64(data[2])
	b := NewBuilder()
	for i := 0; i < numV; i++ {
		b.AddVertex(1)
	}
	rest := data[3:]
	for i := 0; i+1 < len(rest); i += 2 {
		u := int(rest[i]) % numV
		v := int(rest[i+1]) % numV
		if u == v {
			continue
		}
		b.AddNet(1+int64(rest[i]%3), []int{u, v})
	}
	h, err := b.Build()
	if err != nil {
		panic("buildFuzzHypergraph produced invalid input: " + err.Error())
	}
	return h, k, seed
}

// FuzzPartitionKWay drives the multilevel bisection pipeline with
// arbitrary small hypergraphs and checks the invariants the rest of
// the repo relies on: every vertex gets a valid part label, the
// result is identical whether the recursion runs sequentially or on
// four workers (the determinism contract), and on unit weights no
// part grossly exceeds its proportional share.
func FuzzPartitionKWay(f *testing.F) {
	f.Add([]byte{10, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add([]byte{31, 2, 7, 9, 3, 8, 1, 0, 30, 12, 13})
	f.Add([]byte{2, 0, 0})             // minimal: 2 vertices, no nets
	f.Add([]byte{20, 3, 42})           // vertices only, k=5
	f.Add(bytes.Repeat([]byte{5}, 40)) // degenerate: all self-loops
	f.Fuzz(func(t *testing.T, data []byte) {
		h, k, seed := buildFuzzHypergraph(data)
		if h == nil {
			t.Skip()
		}
		part, err := PartitionKWay(h, k, KWayOptions{Eps: 0.1, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatalf("PartitionKWay: %v", err)
		}
		if len(part) != h.NumV {
			t.Fatalf("partition length %d != %d vertices", len(part), h.NumV)
		}
		for v, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("vertex %d in invalid part %d (k=%d)", v, p, k)
			}
		}
		// Determinism: the partition is documented to be a pure function
		// of (h, k, options) regardless of Workers.
		par, err := PartitionKWay(h, k, KWayOptions{Eps: 0.1, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatalf("PartitionKWay workers=4: %v", err)
		}
		for v := range part {
			if part[v] != par[v] {
				t.Fatalf("worker count changed the partition at vertex %d: %d vs %d", v, part[v], par[v])
			}
		}
		// Balance on unit weights. Discreteness dominates on tiny
		// inputs, so only check when every part could hold at least two
		// vertices, and leave generous slack beyond eps for the coarse
		// last-level moves.
		if h.NumV >= 2*k {
			w := PartWeights(h, part, k)
			avg := float64(h.TotalVWeight()) / float64(k)
			for p, pw := range w {
				if float64(pw) > avg*1.5+1 {
					t.Fatalf("part %d weight %d exceeds 1.5×avg+1 (avg=%f, weights=%v)", p, pw, avg, w)
				}
			}
		}
		// The connectivity cost of a valid labeling is well-defined and
		// non-negative.
		if c := h.ConnectivityCost(part); c < 0 {
			t.Fatalf("negative connectivity cost %d", c)
		}
	})
}

// buildFuzzBINW decodes a byte string into a small weighted hypergraph
// and a BINW bound. The first three bytes pick the vertex count, the
// bound (the incident total divided by 2–7) and the seed. Each
// following net starts with a header byte giving its size (1–6 pins)
// and weight (1–16); the next size bytes name its pins, and a pin
// repeated within one net is dropped.
func buildFuzzBINW(data []byte) (h *Hypergraph, bound int64, seed int64) {
	if len(data) < 3 {
		return nil, 0, 0
	}
	numV := 2 + int(data[0]%40)
	div := 2 + int64(data[1]%6)
	seed = int64(data[2])
	b := NewBuilder()
	for i := 0; i < numV; i++ {
		b.AddVertex(1 + int64(i%5))
	}
	rest := data[3:]
	for len(rest) > 0 {
		hdr := rest[0]
		size := 1 + int(hdr%6)
		rest = rest[1:]
		if size > len(rest) {
			size = len(rest)
		}
		var pins []int
		for _, p := range rest[:size] {
			v := int(p) % numV
			dup := false
			for _, u := range pins {
				dup = dup || u == v
			}
			if !dup {
				pins = append(pins, v)
			}
		}
		rest = rest[size:]
		if len(pins) > 0 {
			b.AddNet(1+int64(hdr/6%16), pins)
		}
	}
	h, err := b.Build()
	if err != nil {
		panic("buildFuzzBINW produced invalid input: " + err.Error())
	}
	return h, max(incidentTotal(h)/div, 1), seed
}

// FuzzPartitionBINW checks the BINW partition's contract on arbitrary
// small hypergraphs: labels are dense (every id in 0..np−1 used), each
// part's incident net weight is within the bound unless the part is a
// single vertex, and the result is the same on one worker and four.
func FuzzPartitionBINW(f *testing.F) {
	f.Add([]byte{10, 1, 3, 2, 0, 1, 2, 8, 2, 3, 4, 15, 5, 6, 7, 8, 9, 1})
	f.Add([]byte{39, 5, 11, 5, 1, 2, 3, 4, 5, 17, 6, 7, 8, 9, 10, 11, 29, 12, 13, 14, 15, 16, 0, 20})
	f.Add([]byte{2, 0, 0})             // 2 vertices, no nets
	f.Add([]byte{30, 4, 9, 0, 1, 2})   // size-1 nets only
	f.Add(bytes.Repeat([]byte{5}, 48)) // one vertex pinned by every net
	f.Fuzz(func(t *testing.T, data []byte) {
		h, bound, seed := buildFuzzBINW(data)
		if h == nil {
			t.Skip()
		}
		part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatalf("PartitionBINW: %v", err)
		}
		if len(part) != h.NumV {
			t.Fatalf("partition length %d != %d vertices", len(part), h.NumV)
		}
		size := make([]int, np)
		for v, p := range part {
			if p < 0 || p >= np {
				t.Fatalf("vertex %d in invalid part %d (np=%d)", v, p, np)
			}
			size[p]++
		}
		for p, n := range size {
			if n == 0 {
				t.Fatalf("part %d of %d is empty: labels are not dense", p, np)
			}
		}
		for p, w := range h.IncidentNetWeight(part, np) {
			if w > bound && size[p] > 1 {
				t.Fatalf("part %d (%d vertices) has incident weight %d > bound %d", p, size[p], w, bound)
			}
		}
		par, npar, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatalf("PartitionBINW workers=4: %v", err)
		}
		if npar != np {
			t.Fatalf("worker count changed the part count: %d vs %d", np, npar)
		}
		for v := range part {
			if part[v] != par[v] {
				t.Fatalf("worker count changed the partition at vertex %d: %d vs %d", v, part[v], par[v])
			}
		}
	})
}
