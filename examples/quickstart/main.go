// Quickstart: build a small batch of file-sharing tasks by hand, run
// it through the BiPartition scheduler on a simulated coupled
// storage/compute cluster, and inspect the result.
package main

import (
	"fmt"
	"log"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
)

func main() {
	// A dataset of six 100 MB files spread over two storage nodes.
	b := batch.New()
	var files []batch.FileID
	for i := 0; i < 6; i++ {
		f := b.AddFile(fmt.Sprintf("chunk-%d", i), 100*platform.MB, i%2)
		files = append(files, f)
	}
	// Eight tasks; consecutive tasks share most of their inputs
	// (batch-shared I/O).
	for i := 0; i < 8; i++ {
		in := []batch.FileID{files[i%5], files[(i+1)%5], files[(i+2)%5]}
		b.AddTask(fmt.Sprintf("analysis-%d", i), 0.3 /* seconds of compute */, in)
	}

	// A toy platform: 3 compute nodes with 1 GB local caches, 2
	// storage nodes, 50 MB/s remote paths, 500 MB/s compute fabric.
	pf := platform.Uniform(3, 2, platform.GB, 50*platform.MB, 500*platform.MB)

	problem := &core.Problem{Batch: b, Platform: pf}
	result, err := core.RunWith(problem, bipart.New(1), core.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduler:        %s\n", result.Scheduler)
	fmt.Printf("batch time:       %.2f s (simulated)\n", result.Makespan)
	fmt.Printf("remote transfers: %d\n", result.RemoteTransfers)
	fmt.Printf("replications:     %d\n", result.ReplicaTransfers)
	fmt.Printf("sub-batches:      %d\n", result.SubBatches)
}
