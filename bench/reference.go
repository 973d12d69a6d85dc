package main

import (
	"container/heap"
	"math/rand/v2"
	"runtime"
	"slices"
)

// The shared host this benchmark was written on changes speed by ±25%
// within tens of seconds, and all four workloads slow down and speed up
// together, while a pure-CPU or pure-memory loop tracks them poorly. A
// fixed kernel that does the same kind of work as the program (a greedy
// earliest-completion placement loop over a heap, per-node file maps,
// small allocations) tracks them closely. It is timed right before and
// after every measured run, and the run's wall time is rescaled by the
// ratio of refNominalMS to the mean of the two timings: the result is
// the run's wall time on a machine as fast as a quiet one of these
// hosts. The kernel lives in the benchmark, so no change to the program
// moves it. The raw wall time and the kernel's time are reported as
// per-layer metrics.

// refNominalMS is the reference kernel's typical time, in milliseconds,
// on the 2-CPU Xeon host the bounds were set on.
const refNominalMS = 2.0

// referenceSink keeps the reference kernel's result live.
var referenceSink float64

// timeReference collects garbage, then times one run of the reference
// kernel, in milliseconds.
func timeReference() float64 {
	runtime.GC()
	t0 := clock()
	referenceSink += referencePlacement(60, 600, 24) + referencePlacement(35, 4000, 96)
	return clock().Sub(t0).Seconds() * 1e3
}

// rescale converts a wall time measured between two reference timings
// to the same time at the nominal reference speed.
func rescale(wallS, refBeforeMS, refAfterMS float64) float64 {
	return wallS * refNominalMS / ((refBeforeMS + refAfterMS) / 2)
}

// referencePlacement places tasks, each reading 8 files out of a window
// of 40, one at a time on the node with the earliest estimated
// completion time, re-verifying heap entries whose node has changed. It
// returns the makespan.
func referencePlacement(tasks, files, nodes int) float64 {
	const perTask, window = 8, 40
	rng := rand.New(rand.NewPCG(1, 2))
	size := make([]float64, files)
	for f := range size {
		size[f] = 1 + rng.Float64()*9
	}
	inputs := make([][]int32, tasks)
	for t := range inputs {
		in := make([]int32, perTask)
		base := rng.IntN(files)
		for i := range in {
			in[i] = int32((base + rng.IntN(window)) % files)
		}
		slices.Sort(in)
		inputs[t] = in
	}
	cached := make([]map[int32]bool, nodes)
	for n := range cached {
		cached[n] = map[int32]bool{}
	}
	ready := make([]float64, nodes)
	version := make([]int, nodes)
	ect := func(t, n int) float64 {
		c := ready[n] + 3
		for _, f := range inputs[t] {
			if !cached[n][f] {
				c += size[f] / 4
			}
		}
		return c
	}
	h := make(refHeap, 0, tasks*nodes)
	for t := 0; t < tasks; t++ {
		for n := 0; n < nodes; n++ {
			h = append(h, refCand{ect(t, n), t, n, 0})
		}
	}
	heap.Init(&h)
	done := make([]bool, tasks)
	var makespan float64
	for h.Len() > 0 {
		c := heap.Pop(&h).(refCand)
		switch {
		case done[c.task]:
		case c.version != version[c.node]:
			heap.Push(&h, refCand{ect(c.task, c.node), c.task, c.node, version[c.node]})
		default:
			done[c.task] = true
			ready[c.node] = c.ect
			version[c.node]++
			for _, f := range inputs[c.task] {
				cached[c.node][f] = true
			}
			makespan = max(makespan, c.ect)
		}
	}
	return makespan
}

type refCand struct {
	ect                 float64
	task, node, version int
}

type refHeap []refCand

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].ect != h[j].ect {
		return h[i].ect < h[j].ect
	}
	return h[i].task < h[j].task
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refCand)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
