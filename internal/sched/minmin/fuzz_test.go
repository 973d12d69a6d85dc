package minmin

import (
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
)

// fuzzProblem decodes the fuzz arguments into a small batch on 2–24
// compute nodes. Nodes draw their local-read and network bandwidths
// from up to four values each, so they fall into several cold classes,
// and disk limits vary per node (some unlimited) but always hold the
// largest task, as Problem.Validate requires.
func fuzzProblem(seed int64, nodes, classes, diskPct uint8, noRepl bool) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	b := batch.New()
	numStorage := 1 + rng.Intn(3)
	numFiles := 4 + rng.Intn(17)
	for f := 0; f < numFiles; f++ {
		b.AddFile("", int64(1+rng.Intn(12))*platform.MB, f%numStorage)
	}
	numTasks := 4 + rng.Intn(37)
	var maxTask int64
	for k := 0; k < numTasks; k++ {
		perm := rng.Perm(numFiles)[:1+rng.Intn(4)]
		fs := make([]batch.FileID, len(perm))
		var bytes int64
		for i, f := range perm {
			fs[i] = batch.FileID(f)
			bytes += b.FileSize(fs[i])
		}
		if bytes > maxTask {
			maxTask = bytes
		}
		b.AddTask("", float64(rng.Intn(4))*0.05, fs)
	}
	readBW := []float64{100 * platform.MB, 80 * platform.MB, 60 * platform.MB, 100 * platform.MB}
	netBW := []float64{platform.InfinibandBW, 400 * platform.MB, 180 * platform.MB, 150 * platform.MB}
	nc := 1 + int(classes)%4
	p := platform.XIO(2+int(nodes)%23, numStorage, 0)
	for i := range p.Compute {
		c := &p.Compute[i]
		c.LocalReadBW = readBW[rng.Intn(nc)]
		c.NetBW = netBW[rng.Intn(nc)]
		if diskPct > 0 && rng.Intn(4) > 0 {
			c.DiskSpace = maxTask + maxTask*int64(rng.Intn(int(diskPct)+1))/100
		}
	}
	return &core.Problem{Batch: b, Platform: p, DisableReplication: noRepl}
}

// FuzzMinMinEquivalence requires the incremental planner to write the
// same journal bytes as the reference full scan on random small
// batches, heterogeneous nodes and per-node disk limits. Its seed
// corpus lives in testdata/fuzz/FuzzMinMinEquivalence.
func FuzzMinMinEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nodes, classes, diskPct uint8, noRepl bool) {
		p := fuzzProblem(seed, nodes, classes, diskPct, noRepl)
		if err := p.Validate(); err != nil {
			t.Fatalf("fuzzProblem built an invalid problem: %v", err)
		}
		requireEquivalent(t, p)
	})
}
