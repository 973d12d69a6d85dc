package jdp

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
)

// fuzzProblem decodes the fuzz arguments into a small batch on 2–24
// compute nodes with heterogeneous bandwidths. With diskPct > 0, every
// node gets a disk limit between the largest task, as Problem.Validate
// requires, and (1+diskPct/100) times that, so few-node instances run
// in several sub-batches with LRU eviction between them.
func fuzzProblem(rng *rand.Rand, nodes, diskPct uint8, noRepl bool) *core.Problem {
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
		maxTask = max(maxTask, bytes)
		b.AddTask("", float64(rng.Intn(4))*0.05, fs)
	}
	readBW := []float64{100 * platform.MB, 80 * platform.MB, 60 * platform.MB}
	netBW := []float64{platform.InfinibandBW, 400 * platform.MB, 150 * platform.MB}
	p := platform.XIO(2+int(nodes)%23, numStorage, 0)
	for i := range p.Compute {
		c := &p.Compute[i]
		c.LocalReadBW = readBW[rng.Intn(len(readBW))]
		c.NetBW = netBW[rng.Intn(len(netBW))]
		if diskPct > 0 {
			c.DiskSpace = maxTask + maxTask*int64(rng.Intn(int(diskPct)+1))/100
		}
	}
	return &core.Problem{Batch: b, Platform: p, DisableReplication: noRepl}
}

// warmState returns a State whose disks already hold up to held random
// file copies, staged at distinct times so LRU eviction has a strict
// order. A copy is only added where the node keeps room for the largest
// task, since a plan must fit the disks it starts from. The same seed
// gives the same State.
func warmState(t *testing.T, p *core.Problem, seed int64, held uint8) *core.State {
	t.Helper()
	st, err := core.NewState(p)
	if err != nil {
		t.Fatalf("fuzzProblem built an invalid problem: %v", err)
	}
	room := st.MaxPendingTaskBytes(p.Batch.AllTasks())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < int(held); i++ {
		n, f := rng.Intn(p.Platform.NumCompute()), batch.FileID(rng.Intn(p.Batch.NumFiles()))
		if st.Free(n)-p.Batch.FileSize(f) >= room {
			if err := st.AddFile(n, f, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// FuzzJDPEquivalence requires PlanSubBatch to match planNaive exactly on
// random small batches that start from a warm cluster state: the first
// plan must be identical, and the full pipeline from that state (replica
// daemon capped at maxRepl per round, LRU eviction under disk limits)
// must write the same journal bytes and result. The initial copies make
// PresentMatrix and the first-holder index start from the State's copy
// lists rather than an empty cluster. Its seed corpus lives in
// testdata/fuzz/FuzzJDPEquivalence.
func FuzzJDPEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nodes, diskPct, held, maxRepl uint8, noRepl bool) {
		p := fuzzProblem(rand.New(rand.NewSource(seed)), nodes, diskPct, noRepl)
		pending := p.Batch.AllTasks()
		var plans []*core.SubPlan
		var outs [][]byte
		var results []*core.Result
		for _, naive := range []bool{true, false} {
			s := arm(&Scheduler{PopularityThreshold: 2, MaxReplicasPerRound: int(maxRepl) % 6}, naive)
			plan, err := s.PlanSubBatch(warmState(t, p, seed, held), pending)
			if err != nil {
				t.Fatalf("naive=%v: %v", naive, err)
			}
			plans = append(plans, plan)
			rec := journal.New()
			res, err := core.RunFrom(warmState(t, p, seed, held), s, pending,
				core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}})
			if err != nil {
				t.Fatalf("naive=%v: %v", naive, err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, buf.Bytes())
			results = append(results, res)
		}
		if !reflect.DeepEqual(plans[0], plans[1]) {
			t.Fatalf("first plans diverge:\nnaive:   %+v\nindexed: %+v", plans[0], plans[1])
		}
		if !bytes.Equal(outs[0], outs[1]) {
			a, b := bytes.Split(outs[0], []byte("\n")), bytes.Split(outs[1], []byte("\n"))
			for i := 0; i < len(a) && i < len(b); i++ {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("journals diverge at line %d:\nnaive:   %s\nindexed: %s", i, a[i], b[i])
				}
			}
			t.Fatalf("journals diverge in length: %d vs %d lines", len(a), len(b))
		}
		if results[0].Makespan != results[1].Makespan || results[0].SubBatches != results[1].SubBatches ||
			results[0].Evictions != results[1].Evictions || results[0].TaskCount != results[1].TaskCount {
			t.Fatalf("results diverge: naive %+v vs indexed %+v", results[0], results[1])
		}
	})
}
