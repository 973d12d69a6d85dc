package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// forEachCell runs f(0..n−1) — one call per (row, scheduler) cell of a
// figure — across up to workers goroutines. Every cell is independent:
// it generates its own workload, platform and scheduler, so fan-out
// changes only wall-clock time, never results. Results are collected
// by index on the caller's side, and the error returned is the
// lowest-index one, keeping failure reporting deterministic too.
func forEachCell(workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachCellObserved is forEachCell with deterministic observability
// aggregation: each cell records into private sinks (metrics registry,
// journal recorder), and after all cells finish the sinks merge into
// the root observer in cell-index order — counters and histograms are
// commutative anyway, gauges get a fixed last-writer, and journal
// events keep their per-cell emission order — so the aggregate
// snapshot and the merged journal bytes are identical at any worker
// count. The tracer is passed through shared: its export sorts events
// canonically, so concurrent recording is safe there too.
func forEachCellObserved(workers, n int, root core.Observer, f func(i int, ob core.Observer) error) error {
	var cells []*obs.Metrics
	if root.Metrics != nil {
		cells = make([]*obs.Metrics, n)
		for i := range cells {
			cells[i] = obs.NewMetrics()
		}
	}
	var cellJ []*journal.Recorder
	if root.Journal != nil {
		cellJ = make([]*journal.Recorder, n)
		for i := range cellJ {
			cellJ[i] = journal.New()
			cellJ[i].Emit(journal.Event{Kind: journal.KindCell,
				Run: &journal.Run{Label: fmt.Sprintf("cell %d/%d", i, n)}})
		}
	}
	err := forEachCell(workers, n, func(i int) error {
		ob := core.Observer{Trace: root.Trace}
		if cells != nil {
			ob.Metrics = cells[i]
		}
		if cellJ != nil {
			ob.Journal = cellJ[i]
		}
		return f(i, ob)
	})
	for _, m := range cells {
		root.Metrics.Merge(m)
	}
	for _, j := range cellJ {
		root.Journal.Merge(j)
	}
	return err
}
