// Package core implements the paper's primary contribution as a
// reusable library: the problem definition (a batch of data-intensive
// tasks with batch-shared I/O to be run on a coupled storage/compute
// cluster), the three-stage scheduling pipeline (sub-batch selection →
// task allocation → runtime ordering of tasks and file transfers), the
// cluster disk-cache state threaded between sub-batches, and the
// Gantt-chart runtime executor of §6.
//
// Concrete scheduling policies (the paper's 0-1 IP and BiPartition
// schemes plus the MinMin and JobDataPresent baselines) live in
// internal/sched/* and plug in through the Scheduler interface.
package core

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/platform"
)

// Problem is a complete scheduling-problem instance.
type Problem struct {
	Batch    *batch.Batch
	Platform *platform.Platform
	// DisableReplication forbids compute-to-compute file copies; every
	// stage-in must come from the storage cluster. Used for the
	// paper's Figure 5(a) "No Replication" comparison.
	DisableReplication bool
}

// Validate checks the instance against the paper's standing
// assumptions: a valid platform, a valid batch, and — in the limited
// disk case — "enough space on each compute node to store all the
// files required for any single task".
func (p *Problem) Validate() error {
	if p.Batch == nil || p.Platform == nil {
		return fmt.Errorf("core: problem needs both a batch and a platform")
	}
	if err := p.Platform.Validate(); err != nil {
		return err
	}
	if err := p.Batch.Finalize(); err != nil {
		return err
	}
	for fi := range p.Batch.Files {
		h := p.Batch.Files[fi].Home
		if h < 0 || h >= p.Platform.NumStorage() {
			return fmt.Errorf("core: file %d homed on unknown storage node %d", fi, h)
		}
	}
	var maxTask int64
	for ti := range p.Batch.Tasks {
		if n := p.Batch.TaskBytes(batch.TaskID(ti)); n > maxTask {
			maxTask = n
		}
	}
	for ci, c := range p.Platform.Compute {
		if c.DiskSpace > 0 && c.DiskSpace < maxTask {
			return fmt.Errorf("core: compute node %d disk (%d B) cannot hold the largest task's files (%d B); the paper assumes it can", ci, c.DiskSpace, maxTask)
		}
	}
	return nil
}

// SourceKind distinguishes the two ways a file reaches a compute node.
type SourceKind int8

const (
	// Remote stages the file from its home storage node (the paper's
	// R variables).
	Remote SourceKind = iota
	// Replica copies the file from another compute node that already
	// holds it (the paper's Y variables).
	Replica
)

// Staging is one planned file movement: stage File onto compute node
// Dest. For Replica, Src is the source compute node; for Remote the
// source is the file's storage home and Src is ignored.
type Staging struct {
	File batch.FileID
	Dest int
	Kind SourceKind
	Src  int
}

// SubPlan is a scheduler's answer for one sub-batch: which pending
// tasks to run now, where each runs, and (optionally) a full staging
// plan. A nil/empty Staging leaves source selection to the runtime
// stage, which picks sources dynamically by earliest transfer
// completion time (the BiPartition/MinMin/JDP mode); a populated
// Staging pins every movement (the IP mode).
type SubPlan struct {
	Tasks   []batch.TaskID
	Node    map[batch.TaskID]int
	Staging []Staging
	// Pinned reports whether Staging is authoritative. When false the
	// executor ignores Staging entirely.
	Pinned bool
	// PreStage lists file movements to perform before task-driven
	// staging begins, independent of task needs. The DataLeastLoaded
	// replication daemon of the JDP baseline expresses its
	// popularity-triggered replicas this way. Destination disk space
	// must be respected by the planner.
	PreStage []Staging
}

// Scheduler is a batch scheduling policy. PlanSubBatch must return a
// plan containing at least one task whose file working set fits the
// current free disk (progress guarantee); Evict runs between
// sub-batches and must free enough compute-cluster disk that the next
// PlanSubBatch can make progress.
type Scheduler interface {
	Name() string
	PlanSubBatch(st *State, pending []batch.TaskID) (*SubPlan, error)
	Evict(st *State, pending []batch.TaskID)
}
