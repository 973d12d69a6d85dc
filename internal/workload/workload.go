// Package workload generates synthetic batches that reproduce the
// published statistics of the paper's two application emulators:
//
//   - SAT: satellite data processing (Titan-style). A 20-day, ~50 GB
//     dataset of 50 MB chunk files declustered over the storage nodes
//     with a Hilbert curve; tasks are spatio-temporal window queries
//     directed at 4 geographic hot-spot regions.
//   - IMAGE: biomedical image analysis. A ~2 TB dataset of 2000
//     patients with MRI (4 MB) and CT (64 MB) image files distributed
//     round-robin over the storage nodes; tasks select images by
//     patient, study and modality.
//
// Both emulators expose the paper's three overlap classes (high ≈ 85 %,
// medium ≈ 40 %, low ≈ 10 % for SAT / 0 % for IMAGE) measuring how much
// of a task's file set is shared with other tasks in the batch.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/hilbert"
	"repro/internal/platform"
)

// Overlap selects one of the paper's three file-sharing classes.
type Overlap int

// Overlap classes, matching the paper's workload taxonomy.
const (
	HighOverlap   Overlap = iota // ≈85 % shared accesses
	MediumOverlap                // ≈40 % shared accesses
	LowOverlap                   // ≈10 % (SAT) / 0 % (IMAGE)
)

// String returns the class name used in the paper's figures.
func (o Overlap) String() string {
	switch o {
	case HighOverlap:
		return "high"
	case MediumOverlap:
		return "medium"
	case LowOverlap:
		return "low"
	default:
		return fmt.Sprintf("Overlap(%d)", int(o))
	}
}

// fraction returns the target shared-access fraction for an application.
func (o Overlap) fraction(app string) float64 {
	switch o {
	case HighOverlap:
		return 0.85
	case MediumOverlap:
		return 0.40
	case LowOverlap:
		if app == "IMAGE" {
			return 0.0
		}
		return 0.10
	}
	return 0
}

// The SAT dataset: a satDays × satCellsPerDay grid of
// satFileSize chunk files (1000 files ≈ 50 GB), queried from
// satHotspots disjoint hot-spot regions.
const (
	satDays        = 20
	satCellsPerDay = 50
	satFileSize    = 50 * platform.MB
	satHotspots    = 4
)

// satFilesPerTask is the paper's average files per SAT query: ~8 for
// high-overlap tasks, ~14 for medium and low.
func satFilesPerTask(o Overlap) int {
	if o == HighOverlap {
		return 8
	}
	return 14
}

// SatConfig parameterizes the SAT emulator.
type SatConfig struct {
	NumTasks   int
	Overlap    Overlap
	NumStorage int // storage nodes to decluster over; ≤ 0 means 4
	Seed       int64
}

// Sat generates a satellite-data-processing batch.
//
// The dataset is a satDays × satCellsPerDay grid of chunk files laid
// out in Hilbert order over a spatial grid per day; queries are
// contiguous windows in (day, Hilbert-distance) space anchored at one
// of the hot-spot regions, so tasks directed at the same hot spot
// request heavily overlapping file sets. A task's computation time is
// the paper's 0.001 s/MB of its input.
func Sat(cfg SatConfig) (*batch.Batch, error) {
	if cfg.NumTasks <= 0 {
		return nil, fmt.Errorf("workload: NumTasks must be positive")
	}
	if cfg.NumStorage <= 0 {
		cfg.NumStorage = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Build the file universe: satCellsPerDay spatial cells per day.
	// The spatial grid is the smallest near-square holding
	// satCellsPerDay cells; file Home follows the Hilbert declustering of that grid,
	// offset per day so consecutive days do not pile onto node 0.
	w, h := gridDims(satCellsPerDay)
	assign := hilbert.Decluster(w, h, cfg.NumStorage)
	b := batch.New()
	nFiles := satDays * satCellsPerDay
	fileAt := make([]batch.FileID, nFiles)
	idx := 0
	for day := 0; day < satDays; day++ {
		// enumerate cells in Hilbert order so that file index order is
		// spatial-locality order.
		n := 1
		for n < w || n < h {
			n *= 2
		}
		cell := 0
		for d := 0; d < n*n && cell < satCellsPerDay; d++ {
			x, y := hilbert.D2XY(n, d)
			if x >= w || y >= h {
				continue
			}
			home := (assign[y][x] + day) % cfg.NumStorage
			name := fmt.Sprintf("sat-d%02d-c%03d", day, cell)
			fileAt[idx] = b.AddFile(name, satFileSize, home)
			cell++
			idx++
		}
	}

	// Hot spots: distinct, non-overlapping anchor regions in the
	// (day, cell) index space, matching the paper's 4 disjoint query
	// sets.
	gen := overlapGenerator{
		rng:          rng,
		pool:         fileAt,
		groups:       satHotspots,
		filesPerTask: satFilesPerTask(cfg.Overlap),
		sharedFrac:   cfg.Overlap.fraction("SAT"),
	}
	sets := gen.taskFileSets(cfg.NumTasks)
	for ti, fs := range sets {
		var bytes int64
		for _, f := range fs {
			bytes += b.FileSize(f)
		}
		comp := platform.PaperComputeFactor * float64(bytes)
		b.AddTask(fmt.Sprintf("sat-q%04d", ti), comp, fs)
	}
	if err := b.Finalize(); err != nil {
		return nil, err
	}
	return compact(b)
}

// The IMAGE dataset: imagePatients patients with imageStudiesPer
// studies each, alternating MRI and CT; an MRI study is 32 × 4 MB
// images and a CT study 2 × 64 MB, so each patient holds ≈1 GB and the
// dataset ≈2 TB. A task reads imageFilesPerTask images.
const (
	imagePatients     = 2000
	imageStudiesPer   = 8
	mriSize           = 4 * platform.MB
	ctSize            = 64 * platform.MB
	imagesPerMRIStudy = 32
	imagesPerCTStudy  = 2
	imageFilesPerTask = 8
)

// ImageConfig parameterizes the IMAGE emulator.
type ImageConfig struct {
	NumTasks   int
	Overlap    Overlap
	NumStorage int // storage nodes to distribute over; ≤ 0 means 4
	Seed       int64
	// HotGroups fixes the number of hot (patient, study) groups;
	// 0 derives it from the batch size (≈12 tasks per group).
	HotGroups int
	// ComputeFactor converts a task's input bytes to seconds of
	// computation; 0 means the paper's 0.001 s/MB.
	ComputeFactor float64
	// MaxPatients caps the patients actually materialized as files;
	// large batches only touch the patients the tasks query, so the
	// emulator lazily creates only those. Zero means derive from the
	// task count.
	MaxPatients int
}

// Image generates a biomedical-image-analysis batch.
//
// Each patient has imageStudiesPer studies, alternating MRI and CT
// modalities; a study is a series of image files. A task selects a
// window of images from one (patient, study) combination. Overlap
// classes reuse hot (patient, study) combinations across tasks; the
// low-overlap class gives every task a distinct patient (0 % overlap,
// as in the paper). Images of each patient are distributed round-robin
// over the storage nodes.
func Image(cfg ImageConfig) (*batch.Batch, error) {
	if cfg.NumTasks <= 0 {
		return nil, fmt.Errorf("workload: NumTasks must be positive")
	}
	if cfg.NumStorage <= 0 {
		cfg.NumStorage = 4
	}
	if cfg.ComputeFactor == 0 {
		cfg.ComputeFactor = platform.PaperComputeFactor
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Hot (patient, study) groups: tasks in a group share that
	// combination's images. The group count scales with the batch so
	// that, as in the paper's Figure 5(b) sweep, the aggregate data
	// requirement grows roughly linearly with batch size (≈12 tasks
	// per hot combination).
	hot := cfg.HotGroups
	if hot == 0 {
		hot = cfg.NumTasks / 12
		if hot < 4 {
			hot = 4
		}
	}
	// Materialize only the patients tasks will touch. High/medium
	// overlap concentrates tasks on the hot patients; low overlap
	// needs one fresh patient per task.
	needPatients := cfg.MaxPatients
	if needPatients == 0 {
		switch cfg.Overlap {
		case LowOverlap:
			needPatients = cfg.NumTasks
		default:
			needPatients = hot
		}
		if needPatients > imagePatients {
			needPatients = imagePatients
		}
	}

	b := batch.New()
	// files[p][s] lists the image files of study s of patient p.
	files := make([][][]batch.FileID, needPatients)
	rr := 0
	for p := 0; p < needPatients; p++ {
		files[p] = make([][]batch.FileID, imageStudiesPer)
		for s := 0; s < imageStudiesPer; s++ {
			mri := s%2 == 0
			n, size, mod := imagesPerMRIStudy, int64(mriSize), "mri"
			if !mri {
				n, size, mod = imagesPerCTStudy, ctSize, "ct"
			}
			for im := 0; im < n; im++ {
				name := fmt.Sprintf("img-p%04d-s%02d-%s-%03d", p, s, mod, im)
				f := b.AddFile(name, size, rr%cfg.NumStorage)
				rr++
				files[p][s] = append(files[p][s], f)
			}
		}
	}

	frac := cfg.Overlap.fraction("IMAGE")
	if frac == 0 {
		// Distinct patient per task: zero overlap.
		for ti := 0; ti < cfg.NumTasks; ti++ {
			p := ti % needPatients
			fs := pickStudyWindow(rng, files[p], imageFilesPerTask)
			addImageTask(b, cfg, ti, fs)
		}
	} else {
		// Tasks in a hot group are sliding windows over their hot
		// patient's date-ordered image sequence (all studies
		// concatenated), so consecutive queries share most images.
		pool := make([]batch.FileID, 0, needPatients*imageStudiesPer)
		for p := 0; p < needPatients; p++ {
			for s := 0; s < imageStudiesPer; s++ {
				pool = append(pool, files[p][s]...)
			}
		}
		gen := overlapGenerator{
			rng:          rng,
			pool:         pool,
			groups:       needPatients,
			filesPerTask: imageFilesPerTask,
			sharedFrac:   frac,
		}
		for ti, fs := range gen.taskFileSets(cfg.NumTasks) {
			addImageTask(b, cfg, ti, fs)
		}
	}
	if err := b.Finalize(); err != nil {
		return nil, err
	}
	return compact(b)
}

func addImageTask(b *batch.Batch, cfg ImageConfig, ti int, fs []batch.FileID) {
	var bytes int64
	for _, f := range fs {
		bytes += b.FileSize(f)
	}
	b.AddTask(fmt.Sprintf("img-q%04d", ti), cfg.ComputeFactor*float64(bytes), fs)
}

// pickStudyWindow selects k images from a patient's studies, walking
// studies in order (a date-range query).
func pickStudyWindow(rng *rand.Rand, studies [][]batch.FileID, k int) []batch.FileID {
	var fs []batch.FileID
	s := rng.Intn(len(studies))
	for len(fs) < k {
		sf := studies[s%len(studies)]
		for _, f := range sf {
			if len(fs) >= k {
				break
			}
			if !containsFile(fs, f) {
				fs = append(fs, f)
			}
		}
		s++
	}
	return fs
}

func containsFile(fs []batch.FileID, f batch.FileID) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

func gridDims(cells int) (w, h int) {
	w = 1
	for w*w < cells {
		w++
	}
	h = (cells + w - 1) / w
	return w, h
}
