package obs

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles bundles the standard Go profiling outputs the CLIs expose
// as flags. Empty paths disable the corresponding profile.
type Profiles struct {
	CPU     string // pprof CPU profile (-cpuprofile)
	Mem     string // pprof heap profile, written at stop (-memprofile)
	Runtime string // runtime/trace execution trace (-trace)
}

// Start begins the requested profiles and returns a stop function
// that flushes and closes them; call it exactly once, after the
// workload finishes. Any profile that fails to start aborts the rest.
func (p Profiles) Start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if p.CPU != "" {
		cpuF, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			cpuF = nil
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	if p.Runtime != "" {
		traceF, err = os.Create(p.Runtime)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("obs: runtime trace: %w", err)
		}
		if err = trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("obs: runtime trace: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("obs: cpu profile: %w", err)
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil {
				return fmt.Errorf("obs: runtime trace: %w", err)
			}
		}
		if p.Mem != "" {
			err := WriteFile(p.Mem, func(w io.Writer) error {
				runtime.GC() // up-to-date allocation statistics
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				return fmt.Errorf("obs: heap profile: %w", err)
			}
		}
		return nil
	}, nil
}

// WriteFile creates path and streams write into it, reporting the
// first error from either. The CLIs write every output file through
// it.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
