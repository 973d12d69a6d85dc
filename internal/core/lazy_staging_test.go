package core_test

import (
	"fmt"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/gantt"
	"repro/internal/platform"
)

// TestLazyStagingExact pins that the staging loop's lower bounds never
// change a pick: every greedy round is re-priced in full and must
// choose the same file and source bits, across the exactness matrix
// (IP's twin planning included).
func TestLazyStagingExact(t *testing.T) {
	var rounds, skips, ipRounds int
	exactnessRuns(t, func(name string, p *core.Problem, s core.Scheduler, opt core.RunOptions) {
		var res *core.Result
		var err error
		n, bad := core.CheckLazyStaging(func() { res, err = core.RunWith(p, s, opt) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range bad {
			t.Errorf("%s: %s", name, m)
		}
		if s.Name() == "IP" {
			ipRounds += n
		}
		rounds += n
		skips += res.BoundSkips
	})
	if rounds == 0 || skips == 0 || ipRounds == 0 {
		t.Fatalf("bounds not exercised: %d rounds, %d bound skips, %d IP twin rounds", rounds, skips, ipRounds)
	}
	t.Logf("checked %d rounds, %d bound skips", rounds, skips)
}

// runBooked executes one task on compute node 0 of a uniform platform
// (2 compute and 2 storage nodes, remote 10 MB/s, replica 20 MB/s)
// with the given pre-booked intervals, checking every greedy staging
// round against the full re-price. held lists (file, node) copies
// present before the run.
func runBooked(t *testing.T, b *batch.Batch, task batch.TaskID, held [][2]int, bookings []core.Booking) *core.ExecStats {
	t.Helper()
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 2, 0, 10*platform.MB, 20*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range held {
		if err := st.AddFile(h[1], batch.FileID(h[0]), 0); err != nil {
			t.Fatal(err)
		}
	}
	plan := &core.SubPlan{Tasks: []batch.TaskID{task}, Node: map[batch.TaskID]int{task: 0}}
	var stats *core.ExecStats
	_, bad := core.CheckLazyStaging(func() { stats, err = core.ExecuteBooked(st, plan, bookings) })
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range bad {
		t.Error(m)
	}
	return stats
}

// TestLazyStagingTies pins the tight port bound: eight equal remote
// files queue back to back on one port, so after the first round every
// stale key equals the next file's exact TCT and each round settles
// with one search. A bound even one ulp looser re-prices the ties.
// The tentative ECT pass and the commit each run 8 first-round probes
// and 7 later ones, and Probes + ProbeReuses + BoundSkips is twice the
// literal loop's 36 probes plus 8 winner searches.
func TestLazyStagingTies(t *testing.T) {
	b := batch.New()
	var files []batch.FileID
	for i := 0; i < 8; i++ {
		files = append(files, b.AddFile(fmt.Sprint("f", i), 3*platform.MB, 0))
	}
	task := b.AddTask("t", 1, files)
	stats := runBooked(t, b, task, nil, nil)
	if stats.Probes != 30 || stats.ProbeReuses != 16 || stats.BoundSkips != 42 {
		t.Fatalf("Probes/ProbeReuses/BoundSkips = %d/%d/%d, want 30/16/42", stats.Probes, stats.ProbeReuses, stats.BoundSkips)
	}
}

// TestLazyStagingBoundBelowTCT pins that a stale key is the lower
// bound over every source, not the search's TCT. File j's replica
// completes 5e-13 s before its remote copy, inside bestSource's 1e-12
// tie margin, so the search reports the remote TCT. Once the winner w
// takes the storage port the replica wins instead, at a TCT below the
// one first reported, tying file k, which sits later in the task's
// input list; j must still win that round.
func TestLazyStagingBoundBelowTCT(t *testing.T) {
	b := batch.New()
	w := b.AddFile("w", 5*platform.MB/2, 0) // remote 0.25 s
	j := b.AddFile("j", 10*platform.MB, 0)  // remote 1 s, replica 0.5 s
	k := b.AddFile("k", 5*platform.MB, 1)   // remote 0.5 s
	task := b.AddTask("t", 1, []batch.FileID{w, j, k})
	y := 0.5 - 5e-13
	stats := runBooked(t, b, task, [][2]int{{int(j), 1}}, []core.Booking{
		{Storage: true, Node: 1, Start: 0, Dur: y}, // k's home busy until y
		{Node: 1, Start: 0, Dur: y},                // j's replica source busy until y
	})
	if stats.ReplicaTransfers != 1 {
		t.Fatalf("j staged through %d replica transfers, want 1", stats.ReplicaTransfers)
	}
}

// TestLazyStagingUnsortedEnds pins the fallback: a sub-eps fault
// reservation tucked under the end of a busy interval leaves that
// timeline's interval ends unsorted, and no bound may rest on it.
func TestLazyStagingUnsortedEnds(t *testing.T) {
	subEps := func(storage bool, node int) []core.Booking {
		return []core.Booking{{Storage: storage, Node: node, Start: 0, Dur: 10},
			{Storage: storage, Node: node, Start: 10 - gantt.OverlapEps/2, Dur: gantt.OverlapEps / 10}}
	}

	// On the destination, every staging reserves on the unsorted
	// timeline, so each round re-prices every file: the tentative pass
	// and the commit each search 4+3+2+1 times. Behind the busy
	// interval alone, the bounds skip re-pricings.
	b := batch.New()
	var files []batch.FileID
	for i := 0; i < 4; i++ {
		files = append(files, b.AddFile(fmt.Sprint("f", i), int64(i+1)*platform.MB, i%2))
	}
	task := b.AddTask("t", 1, files)
	if stats := runBooked(t, b, task, nil, subEps(false, 0)[:1]); stats.BoundSkips == 0 {
		t.Fatal("sorted ends: no re-pricing skipped")
	}
	if stats := runBooked(t, b, task, nil, subEps(false, 0)); stats.Probes != 20 || stats.BoundSkips != 0 {
		t.Fatalf("unsorted destination: Probes/BoundSkips = %d/%d, want 20/0", stats.Probes, stats.BoundSkips)
	}

	// On the storage home of two large files that stage last, no
	// staging touches it before they do, so only their probes can tell
	// that their bounds are void: both are re-priced every round while
	// the three small files from the other home still skip. Per pass:
	// 5 probes, then 3 (one skip), 3, 2 and 1.
	b = batch.New()
	files = files[:0]
	for i := 0; i < 3; i++ {
		files = append(files, b.AddFile(fmt.Sprint("small", i), platform.MB, 1))
	}
	for i := 0; i < 2; i++ {
		files = append(files, b.AddFile(fmt.Sprint("large", i), 10*platform.MB, 0))
	}
	task = b.AddTask("t", 1, files)
	if stats := runBooked(t, b, task, nil, subEps(true, 0)); stats.Probes != 28 || stats.BoundSkips != 2 {
		t.Fatalf("unsorted source: Probes/BoundSkips = %d/%d, want 28/2", stats.Probes, stats.BoundSkips)
	}
}
