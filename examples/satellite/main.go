// Satellite data processing: the paper's SAT scenario. Scientists
// fire spatio-temporal window queries at hot-spot regions of a
// Hilbert-declustered remote-sensing dataset; queries aimed at the
// same hot spot share most of their chunk files. The example runs the
// same batch under all four schedulers on the OSUMED-class platform
// (slow shared storage link) and shows why affinity-aware scheduling
// wins.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/ipsched"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

func main() {
	b, err := workload.Sat(workload.SatConfig{
		NumTasks:   48,
		Overlap:    workload.HighOverlap,
		NumStorage: 4,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := b.ComputeStats()
	fmt.Printf("SAT batch: %d window queries over %d chunk files (%.1f GB unique, %.0f%% shared accesses)\n\n",
		stats.NumTasks, stats.NumFiles, float64(stats.TotalBytes)/float64(platform.GB), stats.Overlap*100)

	pf := func() *platform.Platform { return platform.OSUMED(6, 4, 0) }

	ip := ipsched.New(11)
	schedulers := []core.Scheduler{ip, bipart.New(11), minmin.New(), jdp.New()}

	fmt.Printf("%-16s %14s %14s %10s %10s\n", "scheduler", "batch time (s)", "sched time", "remote", "replicas")
	for _, s := range schedulers {
		res, err := core.RunWith(&core.Problem{Batch: b, Platform: pf()}, s, core.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %14.1f %14s %10d %10d\n",
			res.Scheduler, res.Makespan, res.SchedulingTime.Round(time.Millisecond),
			res.RemoteTransfers, res.ReplicaTransfers)
	}
	fmt.Println("\nThe affinity-aware schedulers cluster queries that share chunks, so each chunk")
	fmt.Println("crosses the slow shared storage link once; MinMin re-stages shared chunks on")
	fmt.Println("whichever node looks fastest and pays for every duplicate on the 100 Mbps link.")
}
