package hypergraph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildSample constructs the paper's Figure 2 example: 8 tasks, files
// A..H shared as drawn (approximation of the figure: a few files
// shared by neighbouring tasks).
func buildSample(t *testing.T) *Hypergraph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddVertex(1)
	}
	b.AddNet(1, []int{0, 1})    // A
	b.AddNet(1, []int{1, 2})    // B
	b.AddNet(1, []int{2, 3})    // C
	b.AddNet(1, []int{3, 4})    // D
	b.AddNet(1, []int{4, 5})    // E
	b.AddNet(1, []int{5, 6})    // F
	b.AddNet(1, []int{6, 7})    // G
	b.AddNet(1, []int{0, 7})    // H (ring closure)
	b.AddNet(2, []int{0, 1, 2}) // heavier shared file
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func randomHypergraph(rng *rand.Rand, nv, nn int) *Hypergraph {
	b := NewBuilder()
	for i := 0; i < nv; i++ {
		b.AddVertex(1 + int64(rng.Intn(20)))
	}
	for j := 0; j < nn; j++ {
		size := 2 + rng.Intn(5)
		if size > nv {
			size = nv
		}
		perm := rng.Perm(nv)[:size]
		b.AddNet(1+int64(rng.Intn(50)), perm)
	}
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(1)
	b.AddNet(1, []int{0, 3}) // unknown vertex
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for unknown pin")
	}
	b2 := NewBuilder()
	b2.AddVertex(1)
	b2.AddVertex(1)
	b2.AddNet(1, []int{0, 0})
	if _, err := b2.Build(); err == nil {
		t.Fatal("expected error for duplicate pin")
	}
}

// TestFromCSR checks that FromCSR builds what Builder builds from the
// same nets and rejects offsets that do not describe the pins, as well
// as the pin errors Build reports.
func TestFromCSR(t *testing.T) {
	want := buildSample(t)
	got, err := FromCSR(append([]int64(nil), want.VWeight...), append([]int64(nil), want.NWeight...),
		append([]int32(nil), want.XPins...), append([]int32(nil), want.Pins...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromCSR = %+v, want %+v", got, want)
	}
	vw := []int64{1, 1, 1}
	for _, tc := range []struct {
		name  string
		nw    []int64
		xpins []int32
		pins  []int32
		ok    bool
	}{
		{"vertex shared by two nets", []int64{1, 1}, []int32{0, 2, 4}, []int32{0, 1, 0, 1}, true},
		{"no nets", nil, []int32{0}, nil, true},
		{"missing offsets", []int64{1}, []int32{0}, []int32{0, 1}, false},
		{"first offset not zero", []int64{1}, []int32{1, 2}, []int32{0, 1}, false},
		{"last offset short", []int64{1}, []int32{0, 1}, []int32{0, 1}, false},
		{"decreasing offsets", []int64{1, 1, 1}, []int32{0, 1, 0, 1}, []int32{0}, false},
		{"offset past pins", []int64{1, 1}, []int32{0, 5, 2}, []int32{0, 1}, false},
		{"unknown vertex", []int64{1}, []int32{0, 2}, []int32{0, 3}, false},
		{"negative vertex", []int64{1}, []int32{0, 2}, []int32{0, -1}, false},
		{"vertex pinned twice", []int64{1}, []int32{0, 2}, []int32{2, 2}, false},
	} {
		if _, err := FromCSR(vw, tc.nw, tc.xpins, tc.pins); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestVNetsConsistency(t *testing.T) {
	h := buildSample(t)
	// Every pin relation must appear in both directions.
	for n := 0; n < h.NumN; n++ {
		for _, v := range h.NetPins(n) {
			found := false
			for _, nn := range h.VertexNets(int(v)) {
				if int(nn) == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("net %d pins vertex %d but reverse edge missing", n, v)
			}
		}
	}
}

func TestConnectivityCostManual(t *testing.T) {
	h := buildSample(t)
	part := []int{0, 0, 0, 1, 1, 1, 1, 0}
	// Cut nets: C(2,3), F? no (5,6 both 1), G(6,7) cut, H(0,7) not cut
	// (0 and 7 both part 0), E no, A no, B no, heavy{0,1,2} no.
	// So cost = w(C)·1 + w(G)·1 = 2.
	if got := h.ConnectivityCost(part); got != 2 {
		t.Fatalf("connectivity cost = %d, want 2", got)
	}
}

func TestPartitionKWayIsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		h := randomHypergraph(rng, 50+rng.Intn(100), 80+rng.Intn(150))
		k := 2 + rng.Intn(6)
		part, err := PartitionKWay(h, k, KWayOptions{Eps: 0.1, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != h.NumV {
			t.Fatalf("partition length %d != %d vertices", len(part), h.NumV)
		}
		for v, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("vertex %d in invalid part %d (k=%d)", v, p, k)
			}
		}
	}
}

func TestPartitionKWayBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randomHypergraph(rng, 200, 300)
	k := 4
	part, err := PartitionKWay(h, k, KWayOptions{Eps: 0.10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := PartWeights(h, part, k)
	total := h.TotalVWeight()
	avg := float64(total) / float64(k)
	for p, pw := range w {
		if float64(pw) > avg*1.35 {
			t.Fatalf("part %d weight %d exceeds 1.35×avg (%f); weights=%v", p, pw, avg, w)
		}
	}
}

func TestPartitionKWayBeatsRandomCut(t *testing.T) {
	// The partitioner must do clearly better than a random assignment
	// on a structured (clustered) hypergraph.
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	const clusters, per = 4, 30
	for i := 0; i < clusters*per; i++ {
		b.AddVertex(1)
	}
	// Dense intra-cluster nets, few inter-cluster nets.
	for c := 0; c < clusters; c++ {
		for j := 0; j < 60; j++ {
			v1 := c*per + rng.Intn(per)
			v2 := c*per + rng.Intn(per)
			if v1 != v2 {
				b.AddNet(10, []int{v1, v2})
			}
		}
	}
	for j := 0; j < 10; j++ {
		b.AddNet(1, []int{rng.Intn(per), clusters*per - 1 - rng.Intn(per)})
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionKWay(h, clusters, KWayOptions{Eps: 0.15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cost := h.ConnectivityCost(part)
	randPart := make([]int, h.NumV)
	for v := range randPart {
		randPart[v] = rng.Intn(clusters)
	}
	randCost := h.ConnectivityCost(randPart)
	if cost*2 > randCost {
		t.Fatalf("partitioner cost %d not clearly better than random %d", cost, randCost)
	}
}

func TestBINWBoundRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		h := randomHypergraph(rng, 60+rng.Intn(60), 100+rng.Intn(100))
		total := incidentTotal(h)
		bound := total / int64(3+rng.Intn(3))
		part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if np < 1 {
			t.Fatalf("no parts")
		}
		inw := h.IncidentNetWeight(part, np)
		for p, w := range inw {
			if w > bound {
				// Acceptable only for singleton parts that alone
				// exceed the bound.
				count := 0
				for _, pp := range part {
					if pp == p {
						count++
					}
				}
				if count > 1 {
					t.Fatalf("trial %d: part %d (size %d) incident weight %d > bound %d", trial, p, count, w, bound)
				}
			}
		}
	}
}

func TestBINWSinglePartWhenFits(t *testing.T) {
	h := buildSample(t)
	bound := incidentTotal(h) + 1
	part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if np != 1 {
		t.Fatalf("numParts = %d, want 1", np)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatalf("part ids not dense: %v", part)
		}
	}
}

func TestCoarseningPreservesTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := randomHypergraph(rng, 120, 200)
	ch, m := coarsenOnce(&scratch{rng: rng}, h)
	if ch.NumV >= h.NumV {
		t.Fatalf("coarsening did not shrink: %d -> %d", h.NumV, ch.NumV)
	}
	if ch.TotalVWeight() != h.TotalVWeight() {
		t.Fatalf("vertex weight changed: %d -> %d", h.TotalVWeight(), ch.TotalVWeight())
	}
	// Incident totals (net weights + extras) must be conserved.
	if got, want := incidentTotal(ch), incidentTotal(h); got != want {
		t.Fatalf("incident total changed: %d -> %d", want, got)
	}
	for v := 0; v < h.NumV; v++ {
		if int(m[v]) < 0 || int(m[v]) >= ch.NumV {
			t.Fatalf("map out of range")
		}
	}
}

func TestIncidentNetWeightMatchesDefinition(t *testing.T) {
	h := buildSample(t)
	part := []int{0, 0, 1, 1, 0, 0, 1, 1}
	inw := h.IncidentNetWeight(part, 2)
	// Manual: part 0 vertices {0,1,4,5}; nets touching them:
	// A{0,1} w1, B{1,2} w1, D{3,4} w1, E{4,5} w1, F{5,6} w1, H{0,7} w1,
	// heavy{0,1,2} w2 → 1+1+1+1+1+1+2 = 8.
	if inw[0] != 8 {
		t.Fatalf("incident weight part 0 = %d, want 8", inw[0])
	}
	// part 1 {2,3,6,7}: B, C, D, F, G, H, heavy → 1+1+1+1+1+1+2 = 8.
	if inw[1] != 8 {
		t.Fatalf("incident weight part 1 = %d, want 8", inw[1])
	}
}

// TestQuickPartitionValid property-tests K-way partitioning on random
// hypergraphs: output is always a valid partition and the
// connectivity cost never exceeds the all-nets-fully-cut upper bound.
func TestQuickPartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHypergraph(rng, 20+rng.Intn(40), 30+rng.Intn(60))
		k := 2 + rng.Intn(4)
		part, err := PartitionKWay(h, k, KWayOptions{Eps: 0.2, Seed: seed})
		if err != nil {
			return false
		}
		var ub int64
		for n := 0; n < h.NumN; n++ {
			sz := len(h.NetPins(n))
			lam := sz
			if k < lam {
				lam = k
			}
			ub += h.NWeight[n] * int64(lam-1)
		}
		cost := h.ConnectivityCost(part)
		if cost < 0 || cost > ub {
			return false
		}
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRejectsBadEps checks that both entry points refuse a
// balance tolerance that is NaN, infinite or negative: converting
// target·(1+ε) to int64 is implementation-defined for those, which
// used to return grossly unbalanced K-way parts and spurious BINW
// parts instead of an error.
func TestPartitionRejectsBadEps(t *testing.T) {
	h := randomHypergraph(rand.New(rand.NewSource(9)), 120, 200)
	bound := incidentTotal(h) / 3
	for _, tc := range []struct {
		name string
		eps  float64
		ok   bool
	}{
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"negative", -0.1, false},
		{"zero", 0, true},
		{"typical", 0.05, true},
		{"huge", 1e300, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part, err := PartitionKWay(h, 4, KWayOptions{Eps: tc.eps, Seed: 1})
			if (err == nil) != tc.ok {
				t.Fatalf("K-way: err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && len(part) != h.NumV {
				t.Fatalf("K-way: %d labels for %d vertices", len(part), h.NumV)
			}
			part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: tc.eps, Seed: 1})
			if (err == nil) != tc.ok {
				t.Fatalf("BINW: err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && (len(part) != h.NumV || np < 1) {
				t.Fatalf("BINW: %d labels, %d parts", len(part), np)
			}
		})
	}
}

// TestWeightCapSaturates checks the balance cap at the edge of int64:
// a product beyond MaxInt64 saturates instead of wrapping.
func TestWeightCapSaturates(t *testing.T) {
	for _, tc := range []struct {
		target int64
		eps    float64
		want   int64
	}{
		{100, 0.5, 150},
		{0, 1e300, 0},
		{1 << 62, 1, math.MaxInt64},
		{1 << 62, 1e300, math.MaxInt64},
		{math.MaxInt64, 0, math.MaxInt64},
	} {
		if got := weightCap(tc.target, tc.eps); got != tc.want {
			t.Errorf("weightCap(%d, %g) = %d, want %d", tc.target, tc.eps, got, tc.want)
		}
	}
}
