package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

// These tests pin the determinism contract of the parallel solver core
// (DESIGN.md §"Concurrency"): for a fixed seed every scheduler and
// every figure runner must produce identical results regardless of the
// worker count, because all randomness is split deterministically from
// the seed and parallel results are merged in a fixed order. Only
// Result.SchedulingTime (real wall clock) may vary between runs.

// sameResult compares every deterministic field of two core.Results.
func sameResult(t *testing.T, name string, a, b *core.Result) {
	t.Helper()
	if a.Makespan != b.Makespan {
		t.Errorf("%s: makespan %v vs %v", name, a.Makespan, b.Makespan)
	}
	if a.SubBatches != b.SubBatches || a.TaskCount != b.TaskCount {
		t.Errorf("%s: sub-batches/tasks (%d,%d) vs (%d,%d)", name, a.SubBatches, a.TaskCount, b.SubBatches, b.TaskCount)
	}
	if a.RemoteTransfers != b.RemoteTransfers || a.RemoteBytes != b.RemoteBytes {
		t.Errorf("%s: remote traffic (%d,%d) vs (%d,%d)", name, a.RemoteTransfers, a.RemoteBytes, b.RemoteTransfers, b.RemoteBytes)
	}
	if a.ReplicaTransfers != b.ReplicaTransfers || a.ReplicaBytes != b.ReplicaBytes {
		t.Errorf("%s: replica traffic (%d,%d) vs (%d,%d)", name, a.ReplicaTransfers, a.ReplicaBytes, b.ReplicaTransfers, b.ReplicaBytes)
	}
	if a.Evictions != b.Evictions {
		t.Errorf("%s: evictions %d vs %d", name, a.Evictions, b.Evictions)
	}
	if a.StorageBusy != b.StorageBusy || a.ComputeBusy != b.ComputeBusy {
		t.Errorf("%s: busy (%v,%v) vs (%v,%v)", name, a.StorageBusy, a.ComputeBusy, b.StorageBusy, b.ComputeBusy)
	}
}

// TestSchedulersDeterministicWithWorkers constructs each scheduler
// twice with the same seed and Workers > 1 and demands identical
// results. IP runs twice, each checked through the journal: with a
// budget large enough that every solve is proven optimal, and with one
// so small that every solve stops at the limit, where the result
// depends on the bound exchanged at each epoch barrier.
func TestSchedulersDeterministicWithWorkers(t *testing.T) {
	makeBatch := func() *core.Problem {
		b, err := workload.Image(workload.ImageConfig{
			NumTasks: 6, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &core.Problem{Batch: b, Platform: platform.OSUMED(2, 2, 0)}
	}
	schedulers := []struct {
		name string
		make func() core.Scheduler
	}{
		{"IP", func() core.Scheduler {
			ip := ipsched.New(7)
			ip.NodeBudget = 100000
			ip.Workers = 4
			return ip
		}},
		{"IP budget-bound", func() core.Scheduler {
			ip := ipsched.New(7)
			ip.NodeBudget = 12 // one epoch barrier, then the limit
			ip.Workers = 4
			return ip
		}},
		{"BiPartition", func() core.Scheduler {
			bp := bipart.New(7)
			bp.Workers = 4
			return bp
		}},
		{"MinMin", func() core.Scheduler { return minmin.New() }},
		{"JobDataPresent", func() core.Scheduler { return jdp.New() }},
	}
	for _, s := range schedulers {
		var ref *core.Result
		for rep := 0; rep < 2; rep++ {
			p := makeBatch()
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			j := journal.New()
			res, err := core.RunWith(p, s.make(), core.RunOptions{Obs: core.Observer{Journal: j}})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			want := map[string]string{"IP": "status optimal", "IP budget-bound": "status feasible"}[s.name]
			for _, e := range j.Events() {
				if want != "" && e.Kind == journal.KindPlace && !strings.Contains(e.Place.Reason, want) {
					t.Fatalf("%s: want %s, got %s", s.name, want, e.Place.Reason)
				}
			}
			if ref == nil {
				ref = res
				continue
			}
			sameResult(t, s.name, ref, res)
		}
	}
}

// TestFigureRowsWorkersInvariant runs the quick Figure 3 once
// sequentially and once with four workers and demands identical table
// rows: the harness merges cells in fixed order and every cell
// re-derives its inputs from the seed, so the worker count must never
// leak into the figures. IP runs too: its portfolio size is fixed, so
// Workers sizes only its warm-start partitioner. Its node budget is
// tiny to keep the race run short; TestSchedulersDeterministicWithWorkers
// and TestJournalGoldenBudgetIP cover solves that cross epoch barriers.
func TestFigureRowsWorkersInvariant(t *testing.T) {
	opts := experiments.Options{Quick: true, Seed: 3, IPBudget: 2}
	opts.Workers = 1
	seq, err := experiments.Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := experiments.Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("table count %d vs %d", len(seq), len(par))
	}
	for ti := range seq {
		if len(seq[ti].Rows) != len(par[ti].Rows) {
			t.Fatalf("table %d: row count %d vs %d", ti, len(seq[ti].Rows), len(par[ti].Rows))
		}
		for ri, row := range seq[ti].Rows {
			prow := par[ti].Rows[ri]
			if row.Label != prow.Label {
				t.Fatalf("table %d row %d: label %q vs %q", ti, ri, row.Label, prow.Label)
			}
			for ci := range row.Values {
				if row.Values[ci] != prow.Values[ci] || row.Missing[ci] != prow.Missing[ci] {
					t.Errorf("table %d row %q col %s: %v vs %v", ti, row.Label, seq[ti].Columns[ci], row.Values[ci], prow.Values[ci])
				}
			}
		}
	}
}
