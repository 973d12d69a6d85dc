// Package batch defines the task/file model used throughout the
// reproduction: a batch of independent sequential tasks, each of which
// reads a set of input files, where files may be shared by many tasks
// (the paper's "batch-shared I/O" behaviour).
//
// The package also provides the derived indexes the schedulers need
// (file → requiring tasks, sharing statistics) and the file
// equivalence-class reduction used to shrink the 0-1 IP formulations.
package batch

import (
	"fmt"
	"math"
	"sort"
)

// FileID identifies a file within a Batch. IDs are dense: 0..NumFiles-1.
type FileID int32

// TaskID identifies a task within a Batch. IDs are dense: 0..NumTasks-1.
type TaskID int32

// File is a unit of I/O transfer between the storage cluster and the
// compute cluster. Tasks read whole files.
type File struct {
	ID   FileID
	Name string
	// Size is the file size in bytes.
	Size int64
	// Home is the index of the storage node that initially holds the
	// file. The paper assumes every file starts resident on exactly one
	// storage node (declustered across the storage cluster).
	Home int
}

// Task is an independent sequential program. It must run on exactly one
// compute node, and every file in Files must be staged to that node's
// local disk before it starts.
type Task struct {
	ID   TaskID
	Name string
	// Compute is the pure computation time of the task in seconds
	// (the paper's Comp_k).
	Compute float64
	// Files lists the input files the task reads (the paper's Access_k).
	// No duplicates; order is not significant.
	Files []FileID
}

// Batch is a set of tasks plus the universe of files they access.
type Batch struct {
	Tasks []Task
	Files []File

	// require[f] lists the tasks that access file f (the paper's
	// Require_l). Built lazily by Finalize.
	require [][]TaskID
}

// New creates an empty batch.
func New() *Batch { return &Batch{} }

// AddFile appends a file and returns its ID. Home is assigned later by
// the platform declustering step if left at zero.
func (b *Batch) AddFile(name string, size int64, home int) FileID {
	id := FileID(len(b.Files))
	b.Files = append(b.Files, File{ID: id, Name: name, Size: size, Home: home})
	return id
}

// AddTask appends a task and returns its ID. files must contain no
// duplicates and refer to already-added files.
func (b *Batch) AddTask(name string, compute float64, files []FileID) TaskID {
	id := TaskID(len(b.Tasks))
	fs := make([]FileID, len(files))
	copy(fs, files)
	b.Tasks = append(b.Tasks, Task{ID: id, Name: name, Compute: compute, Files: fs})
	b.require = nil // invalidate
	return id
}

// NumTasks returns the number of tasks in the batch.
func (b *Batch) NumTasks() int { return len(b.Tasks) }

// NumFiles returns the number of distinct files accessed by the batch.
func (b *Batch) NumFiles() int { return len(b.Files) }

// Finalize validates the batch and builds the derived indexes. It must
// be called after construction and before Require/Sharers is used.
func (b *Batch) Finalize() error {
	nf := len(b.Files)
	b.require = make([][]TaskID, nf)
	// seen[f] == ti+1 marks file f as already listed by task ti.
	seen := make([]int32, nf)
	for ti := range b.Tasks {
		t := &b.Tasks[ti]
		var bytes int64
		for _, f := range t.Files {
			if int(f) < 0 || int(f) >= nf {
				return fmt.Errorf("batch: task %d references unknown file %d", ti, f)
			}
			if seen[f] == int32(ti+1) {
				return fmt.Errorf("batch: task %d lists file %d twice", ti, f)
			}
			seen[f] = int32(ti + 1)
			b.require[f] = append(b.require[f], TaskID(ti))
			// TaskBytes and the disk check need the sum to fit in an
			// int64. Non-positive sizes are rejected below.
			if size := b.Files[f].Size; size > 0 {
				if bytes > math.MaxInt64-size {
					return fmt.Errorf("batch: task %d's input files total more than %d B", ti, int64(math.MaxInt64))
				}
				bytes += size
			}
		}
		if !(t.Compute >= 0) || math.IsInf(t.Compute, 1) {
			return fmt.Errorf("batch: task %d has a negative or non-finite compute time", ti)
		}
	}
	for fi := range b.Files {
		if b.Files[fi].Size <= 0 {
			return fmt.Errorf("batch: file %d has non-positive size", fi)
		}
	}
	return nil
}

// Require returns the tasks that access file f (the paper's Require_l).
// The returned slice must not be modified.
func (b *Batch) Require(f FileID) []TaskID {
	if b.require == nil {
		if err := b.Finalize(); err != nil {
			panic(err)
		}
	}
	return b.require[f]
}

// FileSize returns the size in bytes of file f.
func (b *Batch) FileSize(f FileID) int64 { return b.Files[f].Size }

// TaskBytes returns the total input bytes of task t.
func (b *Batch) TaskBytes(t TaskID) int64 {
	var sum int64
	for _, f := range b.Tasks[t].Files {
		sum += b.Files[f].Size
	}
	return sum
}

// TotalUniqueBytes returns the space needed to hold one copy of every
// file accessed by the given tasks (all tasks when ts is nil). This is
// the paper's "aggregate data requirement" of a (sub-)batch.
func (b *Batch) TotalUniqueBytes(ts []TaskID) int64 {
	if ts == nil {
		var sum int64
		for i := range b.Files {
			sum += b.Files[i].Size
		}
		return sum
	}
	seen := make(map[FileID]bool)
	var sum int64
	for _, t := range ts {
		for _, f := range b.Tasks[t].Files {
			if !seen[f] {
				seen[f] = true
				sum += b.Files[f].Size
			}
		}
	}
	return sum
}

// Stats summarises the file-sharing structure of a batch.
type Stats struct {
	NumTasks         int
	NumFiles         int
	TotalBytes       int64 // one copy of every file
	AccessBytes      int64 // sum over tasks of their input bytes
	MeanFilesPerTask float64
	MeanSharers      float64 // mean |Require_l|
	MaxSharers       int
	// Overlap is the paper's overlap measure: 1 - unique/total file
	// accesses, i.e. the fraction of file accesses that hit a file some
	// other task also accesses at least once.
	Overlap float64
}

// ComputeStats derives sharing statistics for the batch.
func (b *Batch) ComputeStats() Stats {
	s := Stats{NumTasks: len(b.Tasks), NumFiles: len(b.Files)}
	var accesses int
	for ti := range b.Tasks {
		accesses += len(b.Tasks[ti].Files)
		s.AccessBytes += b.TaskBytes(TaskID(ti))
	}
	for fi := range b.Files {
		s.TotalBytes += b.Files[fi].Size
		n := len(b.Require(FileID(fi)))
		if n > s.MaxSharers {
			s.MaxSharers = n
		}
		s.MeanSharers += float64(n)
	}
	if s.NumFiles > 0 {
		s.MeanSharers /= float64(s.NumFiles)
	}
	if s.NumTasks > 0 {
		s.MeanFilesPerTask = float64(accesses) / float64(s.NumTasks)
	}
	if accesses > 0 {
		s.Overlap = 1 - float64(s.NumFiles)/float64(accesses)
	}
	return s
}

// AllTasks returns the IDs of every task, in order.
func (b *Batch) AllTasks() []TaskID {
	ts := make([]TaskID, len(b.Tasks))
	for i := range ts {
		ts[i] = TaskID(i)
	}
	return ts
}

// SortedCopy returns a sorted copy of ts (ascending ID). Used by
// schedulers that need deterministic iteration over task sets.
func SortedCopy(ts []TaskID) []TaskID {
	out := make([]TaskID, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
