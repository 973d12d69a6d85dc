package hypergraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// goldenPartitionDigest is the SHA-256 of every partition in
// goldenFamily. It pins the partitioner's output bit for bit: any
// change to the RNG stream, tie-breaks, heap pop order or net splitting
// shows up here, where the invariant and worker-invariance tests would
// still pass.
const goldenPartitionDigest = "67f5af4d925b18251d3477ee28e52900c8cfb50832059f7b7bd4d941af537808"

// goldenHypergraph draws one instance of the golden family: 2–120
// vertices with weights 1–20, nets of 1–12 pins (capped at the vertex
// count) with weights 1–60.
func goldenHypergraph(rng *rand.Rand) *Hypergraph {
	nv := 2 + rng.Intn(119)
	b := NewBuilder()
	for i := 0; i < nv; i++ {
		b.AddVertex(1 + int64(rng.Intn(20)))
	}
	nn := 1 + rng.Intn(2*nv)
	for j := 0; j < nn; j++ {
		size := min(1+rng.Intn(12), nv)
		b.AddNet(1+int64(rng.Intn(60)), rng.Perm(nv)[:size])
	}
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func hashLabels(d hash.Hash, tag, np int, part []int) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(tag))
	d.Write(buf[:])
	binary.LittleEndian.PutUint32(buf[:], uint32(np))
	d.Write(buf[:])
	for _, p := range part {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		d.Write(buf[:])
	}
}

// goldenDigest partitions the golden family at the given worker count:
// each instance gets one K-way partition (k 2–17, ε from a small set)
// and one BINW partition (bound total/2 … total/7).
func goldenDigest(t *testing.T, workers int) string {
	t.Helper()
	d := sha256.New()
	epsChoices := []float64{0.05, 0.1, 0.2}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		h := goldenHypergraph(rng)
		k := 2 + rng.Intn(16)
		eps := epsChoices[rng.Intn(len(epsChoices))]
		part, err := PartitionKWay(h, k, KWayOptions{Eps: eps, Seed: int64(i), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hashLabels(d, 2*i, k, part)
		bound := max(incidentTotal(h)/int64(2+rng.Intn(6)), 1)
		part, np, err := PartitionBINW(h, bound, BINWOptions{Eps: 0.2, Seed: int64(i), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hashLabels(d, 2*i+1, np, part)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestPartitionGolden checks the golden family's digest at one and at
// four workers.
func TestPartitionGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got := goldenDigest(t, workers); got != goldenPartitionDigest {
			t.Errorf("workers=%d: partition digest %s, want %s", workers, got, goldenPartitionDigest)
		}
	}
}
