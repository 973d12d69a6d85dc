package hypergraph

import (
	"math/rand"
	"testing"
)

// TestKWayWorkersInvariant demands the same partition from the
// sequential and the concurrent recursion: randomness is split per
// branch from the seed, never drawn from a shared stream, so the
// worker count must not leak into the result.
func TestKWayWorkersInvariant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := randomHypergraph(rand.New(rand.NewSource(seed)), 300, 500)
		var ref []int
		for _, workers := range []int{1, 2, 4, 8} {
			part, err := PartitionKWay(h, 8, KWayOptions{Eps: 0.1, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = part
				continue
			}
			for v := range part {
				if part[v] != ref[v] {
					t.Fatalf("seed %d workers %d: partition differs from sequential at vertex %d", seed, workers, v)
				}
			}
		}
	}
}

// TestBINWWorkersInvariant is the same contract for the BINW
// partition, including the part numbering: concurrent leaves must be
// renumbered into the sequential left-to-right order.
func TestBINWWorkersInvariant(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := randomHypergraph(rand.New(rand.NewSource(seed*3)), 200, 300)
		bound := incidentTotal(h) / 3
		var ref []int
		refParts := 0
		for _, workers := range []int{1, 2, 4} {
			part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref, refParts = part, np
				continue
			}
			if np != refParts {
				t.Fatalf("seed %d workers %d: %d parts vs sequential %d", seed, workers, np, refParts)
			}
			for v := range part {
				if part[v] != ref[v] {
					t.Fatalf("seed %d workers %d: part id differs at vertex %d", seed, workers, v)
				}
			}
		}
	}
}

// TestKWayRepeatedRunsIdentical guards against any hidden global
// state: two runs with identical options must agree exactly.
func TestKWayRepeatedRunsIdentical(t *testing.T) {
	h := randomHypergraph(rand.New(rand.NewSource(9)), 400, 700)
	a, err := PartitionKWay(h, 16, KWayOptions{Eps: 0.1, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionKWay(h, 16, KWayOptions{Eps: 0.1, Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("repeated run differs at vertex %d", v)
		}
	}
}
