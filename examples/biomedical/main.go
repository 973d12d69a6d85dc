// Biomedical image analysis under disk pressure: the paper's IMAGE
// scenario with limited compute-node disks. The batch's working set
// exceeds the aggregate disk cache, so the three-stage pipeline
// splits it into sub-batches, and the §4.3 popularity eviction
// reclaims space between them. The example contrasts BiPartition
// (BINW sub-batch selection) with the MinMin baseline and shows the
// eviction/sub-batch trade-off.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

func main() {
	b, err := workload.Image(workload.ImageConfig{
		NumTasks:   400,
		Overlap:    workload.HighOverlap,
		NumStorage: 4,
		Seed:       3,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := b.ComputeStats()
	working := float64(stats.TotalBytes) / float64(platform.GB)

	// Compute disks sized to hold only ~40% of the working set in
	// aggregate, forcing sub-batching and eviction.
	perNode := int64(working * 0.4 / 4 * float64(platform.GB))
	fmt.Printf("IMAGE batch: %d studies, %.1f GB working set, 4 nodes × %.1f GB disk (%.0f%% of need)\n\n",
		stats.NumTasks, working, float64(perNode)/float64(platform.GB),
		float64(4*perNode)/float64(stats.TotalBytes)*100)

	for _, s := range []core.Scheduler{bipart.New(5), minmin.New(), jdp.New()} {
		p := &core.Problem{Batch: b, Platform: platform.XIO(4, 4, perNode)}
		res, err := core.RunWith(p, s, core.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s batch time %7.1f s   sub-batches %3d   evictions %5d   re-staged %.1f GB\n",
			res.Scheduler, res.Makespan, res.SubBatches, res.Evictions,
			float64(res.RemoteBytes)/float64(platform.GB)-working)
	}
	fmt.Println("\nBiPartition's first-level BINW partition packs tasks that share images into")
	fmt.Println("the same sub-batch, so far fewer cached images are evicted and re-staged.")
}
