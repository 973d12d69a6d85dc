// Custom scheduler: the core.Scheduler interface accepts any policy.
// This example implements a deliberately naive round-robin scheduler
// — tasks dealt to nodes in arrival order, popularity eviction — and
// measures how much the paper's affinity-aware BiPartition scheduler
// gains over it on a batch-shared workload.
package main

import (
	"fmt"
	"log"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/workload"
)

// roundRobin deals pending tasks to compute nodes in order, packing
// each sub-batch until disks fill.
type roundRobin struct{}

func (roundRobin) Name() string { return "RoundRobin" }

func (roundRobin) Evict(st *core.State, pending []batch.TaskID) {
	eviction.Popularity(st, pending)
}

func (roundRobin) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}
	C := st.P.Platform.NumCompute()
	free := make([]int64, C)
	holds := st.PresentMatrix()
	for i := range free {
		free[i] = st.Free(i)
	}
	next := 0
	for _, t := range pending {
		placed := false
		for try := 0; try < C; try++ {
			n := (next + try) % C
			var need int64
			for _, f := range st.P.Batch.Tasks[t].Files {
				if !holds[n][f] {
					need += st.P.Batch.FileSize(f)
				}
			}
			if need > free[n] {
				continue
			}
			plan.Tasks = append(plan.Tasks, t)
			plan.Node[t] = n
			free[n] -= need
			for _, f := range st.P.Batch.Tasks[t].Files {
				holds[n][f] = true
			}
			next = (n + 1) % C
			placed = true
			break
		}
		_ = placed // unplaced tasks wait for the next sub-batch
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("roundrobin: nothing fits")
	}
	return plan, nil
}

func main() {
	b, err := workload.Image(workload.ImageConfig{NumTasks: 120, Overlap: workload.HighOverlap, NumStorage: 4, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range []core.Scheduler{roundRobin{}, bipart.New(2)} {
		// A cluster whose compute fabric is modest (50 MB/s), so every
		// redundant replica costs real time.
		p := &core.Problem{Batch: b, Platform: platform.Uniform(6, 4, 0, 25*platform.MB, 50*platform.MB)}
		res, err := core.RunWith(p, s, core.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s batch time %7.1f s   remote %4d   replicas %4d\n",
			res.Scheduler, res.Makespan, res.RemoteTransfers, res.ReplicaTransfers)
	}
	fmt.Println("\nRound-robin ignores file affinity, so shared files are staged to many nodes;")
	fmt.Println("BiPartition co-locates the tasks that share them.")
}
